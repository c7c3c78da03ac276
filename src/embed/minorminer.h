/**
 * @file
 * Reimplementation of the Minorminer minor-embedding heuristic
 * (Cai, Macready & Roy 2014), the paper's main embedding baseline.
 *
 * Each problem node gets a "vertex model" (chain). Nodes are
 * (re)placed one at a time: for every embedded neighbour a weighted
 * Dijkstra computes the cheapest path from the neighbour's chain to
 * every qubit, where a qubit already used by k chains costs
 * weight_base^k; the new chain is rooted at the qubit minimizing the
 * summed distances and unioned from the paths. Improvement passes
 * repeat until chains stop overlapping (success) or a pass/timeout
 * budget expires (failure). This reproduces the baseline's
 * O(N_q N_p^2 log N_p) iterative routing cost that HyQSAT's §IV-B
 * scheme eliminates.
 */

#ifndef HYQSAT_EMBED_MINORMINER_H
#define HYQSAT_EMBED_MINORMINER_H

#include <cstdint>
#include <utility>
#include <vector>

#include "embed/embedding.h"
#include "topology/topology.h"

namespace hyqsat::embed {

/** Minorminer-style embedder options. */
struct MinorminerOptions
{
    /** Improvement passes after the initial placement. */
    int max_passes = 64;

    /** Full restarts with fresh randomness when passes stall. */
    int restarts = 3;

    /** Give up beyond this wall-clock budget (seconds). */
    double timeout_seconds = 300.0;

    /** Cost base for qubits shared by multiple chains. */
    double weight_base = 16.0;

    std::uint64_t seed = 0xabcdef12;
};

/** Iterative vertex-model embedder. */
class MinorminerEmbedder
{
  public:
    MinorminerEmbedder(const topology::Topology &graph,
                       const MinorminerOptions &opts = {});

    /**
     * Embed a problem graph of @p num_nodes nodes with the given
     * edges. Succeeds only if every node is embedded with disjoint
     * chains.
     */
    EmbedResult embed(int num_nodes,
                      const std::vector<std::pair<int, int>> &edges);

  private:
    const topology::Topology &graph_;
    MinorminerOptions opts_;
};

} // namespace hyqsat::embed

#endif // HYQSAT_EMBED_MINORMINER_H
