/**
 * @file
 * Minor-embedding result representation: every problem-graph node is
 * mapped to a *chain* of physical qubits. Validation checks the
 * three minor-embedding invariants (disjointness, chain
 * connectivity, edge coverage) against a Chimera graph.
 */

#ifndef HYQSAT_EMBED_EMBEDDING_H
#define HYQSAT_EMBED_EMBEDDING_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "topology/topology.h"

namespace hyqsat::embed {

/** Node -> qubit-chain mapping. */
class Embedding
{
  public:
    Embedding() = default;

    /** Construct with @p num_nodes empty chains. */
    explicit Embedding(int num_nodes) : chains_(num_nodes) {}

    /** @return the number of problem nodes. */
    int numNodes() const { return static_cast<int>(chains_.size()); }

    /** Chain of node @p n (list of qubit ids). */
    const std::vector<int> &chain(int n) const { return chains_[n]; }

    /** Mutable chain access for embedder construction. */
    std::vector<int> &chain(int n) { return chains_[n]; }

    /** Append an empty chain and return its node index. */
    int
    addChain()
    {
        chains_.emplace_back();
        return numNodes() - 1;
    }

    /** All chains. */
    const std::vector<std::vector<int>> &chains() const { return chains_; }

    /**
     * Find one physical coupler between the chains of @p u and @p v.
     * @return (qubit_in_u, qubit_in_v) or nullopt.
     */
    std::optional<std::pair<int, int>>
    findCoupler(const topology::Topology &graph, int u, int v) const;

    /**
     * Check the minor-embedding invariants:
     *  1. every chain is non-empty,
     *  2. chains are pairwise disjoint,
     *  3. every chain induces a connected subgraph,
     *  4. every @p problem_edge has at least one physical coupler.
     * @param why when non-null receives a description of the first
     *        violation.
     */
    bool isValid(const topology::Topology &graph,
                 const std::vector<std::pair<int, int>> &problem_edges,
                 std::string *why = nullptr) const;

    /** Total physical qubits used. */
    int totalQubits() const;

    /** Mean chain length (0 for an empty embedding). */
    double averageChainLength() const;

    /** Longest chain length. */
    int maxChainLength() const;

  private:
    std::vector<std::vector<int>> chains_;
};

/** Outcome of an embedding attempt. */
struct EmbedResult
{
    bool success = false;
    Embedding embedding;
    /** Wall-clock seconds spent embedding. */
    double seconds = 0.0;
};

} // namespace hyqsat::embed

#endif // HYQSAT_EMBED_EMBEDDING_H
