/**
 * @file
 * The HyQSAT linear-time, topology-aware embedder of §IV-B.
 *
 * The Chimera chip is viewed as a crossbar: each SAT variable is
 * allocated one *vertical line* (in clause-queue order) and each
 * connection requirement is met by packing a qubit segment onto a
 * *horizontal line* whose column span covers the target variables'
 * columns; the intra-cell coupler at each crossing realizes the
 * problem-graph edge. Auxiliary variables live purely on horizontal
 * lines. There is no routing search and no iterative adjustment:
 * popping a clause costs amortized O(1) line bookkeeping, giving the
 * paper's O(N_q) total embedding complexity.
 *
 * The embedder is prefix-maximal: it embeds clauses in queue order
 * until the hardware is exhausted and reports how many fit.
 */

#ifndef HYQSAT_EMBED_HYQSAT_EMBEDDER_H
#define HYQSAT_EMBED_HYQSAT_EMBEDDER_H

#include <memory>
#include <vector>

#include "embed/compiled_slot.h"
#include "embed/embedding.h"
#include "qubo/encoder.h"
#include "sat/types.h"
#include "topology/topology.h"

namespace hyqsat::embed {

/** Result of embedding a clause queue prefix. */
struct QueueEmbedResult
{
    /** Encoding of the embedded clause prefix. */
    qubo::EncodedProblem problem;

    /** Chains indexed by the problem's node ids. */
    Embedding embedding;

    /** How many queue clauses were embedded (prefix length). */
    int embedded_clauses = 0;

    /** True when the whole queue fit. */
    bool all_embedded = false;

    /** Wall-clock seconds for the whole run (placement, encode, chains). */
    double seconds = 0.0;

    /** Wall-clock seconds of the encode step, included in seconds. */
    double encode_seconds = 0.0;

    /**
     * Downstream compilation memo: the annealer parks its flat
     * sampling form (CSR adjacency + replay schedule) here so a
     * QueueEmbedCache hit also skips the per-sample model rebuild.
     * Mutable side-cache, not part of the result's value.
     */
    CompiledSlot compiled;
};

/** Options for the fast embedder. */
struct HyQsatEmbedderOptions
{
    /**
     * Try to extend an existing horizontal segment of the owner
     * instead of opening a new one (improves utilization; part of
     * the greedy out-of-order allocation of §IV-B).
     */
    bool reuse_segments = true;

    /**
     * On fabrics with odd couplers (Pegasus/Zephyr), when every
     * same-line extension of the owner's segments is blocked, place
     * the new segment on the odd-coupled partner line of an existing
     * segment instead of opening a fresh crossing row: the partner
     * line runs through the same cell row, and any shared column's
     * odd coupler splices the two segments into one chain, so no
     * vertical chain grows. Inert on Chimera (no odd couplers), so
     * Chimera embeddings stay bit-identical.
     */
    bool odd_couplers = true;

    /** Encoder options for the embedded prefix's objective. */
    qubo::EncoderOptions encoder;
};

/**
 * Reusable working state for HyQsatEmbedder::embedQueue: dense
 * per-variable arrays (vertical line, crossing rows, owned segments,
 * coupled partners), the line occupancy grid, the segment list and
 * the per-clause undo log. They are reset — keeping their capacity —
 * instead of reallocated on every call, so placement allocates
 * nothing once the scratch has grown; only the returned encoding and
 * chains are allocated. Opaque (pimpl) so the embedder's internals
 * stay out of the public header. Not thread-safe; one scratch per
 * caller.
 */
class EmbedderScratch
{
  public:
    EmbedderScratch();
    ~EmbedderScratch();
    EmbedderScratch(EmbedderScratch &&) noexcept;
    EmbedderScratch &operator=(EmbedderScratch &&) noexcept;

    /** Opaque container bundle (defined in hyqsat_embedder.cpp). */
    struct Impl;

  private:
    friend class HyQsatEmbedder;
    std::unique_ptr<Impl> impl_;
};

/** The §IV-B embedder. Stateless between embedQueue() calls. */
class HyQsatEmbedder
{
  public:
    explicit HyQsatEmbedder(const topology::Topology &graph,
                            const HyQsatEmbedderOptions &opts = {});

    /**
     * Embed the longest prefix of @p queue that fits the hardware.
     * Clauses must have <= 3 literals (tautologies are tolerated and
     * consume no hardware).
     */
    QueueEmbedResult embedQueue(const std::vector<sat::LitVec> &queue);

    /**
     * Scratch overload: identical result, but every per-run buffer
     * comes from @p scratch (reset on entry, capacity kept), so
     * repeated embeddings avoid the allocation storm of a cold run.
     */
    QueueEmbedResult embedQueue(const std::vector<sat::LitVec> &queue,
                                EmbedderScratch &scratch);

  private:
    const topology::Topology &graph_;
    HyQsatEmbedderOptions opts_;
};

} // namespace hyqsat::embed

#endif // HYQSAT_EMBED_HYQSAT_EMBEDDER_H
