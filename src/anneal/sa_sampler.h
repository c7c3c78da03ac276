/**
 * @file
 * Simulated-annealing sampler over an arbitrary Ising model. This is
 * the computational stand-in for the quantum annealing device (the
 * same role dwave-neal plays for the paper's noise-free simulator):
 * it receives the physical Ising problem and returns one sample of
 * spins plus its energy.
 *
 * Hot-loop layout (PR 5): the model is compiled once into a flat CSR
 * adjacency (SaCompiled), and each chain maintains a cached
 * local-field array f_i = h_i + sum_j J_ij s_j that is updated
 * incrementally on every accepted flip — O(deg) per acceptance,
 * O(1) per energy-delta read, no per-attempt field rescan — with the
 * sample energy carried as a running value instead of a final
 * O(N*deg) pass. Chain/group block moves get the same treatment via
 * precompiled in-group coupling lists.
 *
 * Determinism contract: results and the RNG stream are bit-for-bit
 * those of the pre-CSR implementation. Uniform draws are consumed
 * if and only if a proposal is energetically uphill (dE > 0); when
 * a cached delta sits inside a tiny band around the accept/reject
 * boundary it is recomputed with the legacy summation order before
 * deciding, so accumulated rounding can never flip a decision (and
 * with it the whole downstream draw stream). The accept test is the
 * exp(-j/64) bracket table shared with the lockstep kernels
 * (detail::acceptUphill): a uniform decides on a compare and only
 * one landing between the two bounds pays for an exact exp() — the
 * decision is exactly `u < exp(-beta * dE)`.
 *
 * Multi-read sampling: with SaOptions::num_reads = N > 1, read 0 is
 * the num_reads=1 sample on the caller's Rng (the caller's stream
 * position afterwards is identical, and best-of-N can only improve
 * the returned energy), while reads 1..N-1 run through the lockstep
 * groups of sa_batch.h, seeded from the caller stream's next output
 * without consuming it. Both parts run together on the shared
 * WorkPool.
 */

#ifndef HYQSAT_ANNEAL_SA_SAMPLER_H
#define HYQSAT_ANNEAL_SA_SAMPLER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "qubo/csr.h"
#include "qubo/qubo.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace hyqsat::anneal {

/** Sampler knobs. */
struct SaOptions
{
    /** Metropolis sweeps per sample. */
    int sweeps = 128;

    /** Inverse-temperature ramp endpoints. */
    double beta_start = 0.1;
    double beta_end = 5.0;

    /**
     * Run a final zero-temperature descent (flip while any flip
     * lowers energy). The noise-free simulator enables this; a noisy
     * device sample does not.
     */
    bool greedy_finish = true;

    /**
     * Independent annealing reads per sample; the best energy wins.
     * 1 (the default) reproduces the single-chain sampler exactly;
     * reads beyond the first run in lockstep groups (see the file
     * comment).
     */
    int num_reads = 1;

    /**
     * Number of parallel lockstep groups the N-1 extra reads split
     * into; the groups fan out across the shared WorkPool so the
     * SIMD per-core speedup compounds with core count. 0 (the
     * default) is auto: groups of up to 8 lanes, i.e.
     * ceil((N-1) / 8) groups. 1 forces a single group for any read
     * count. The effective partition is a pure function of
     * (num_reads, reads_groups) — NEVER of the machine's core count,
     * pool size or ISA — so results stay bit-identical across thread
     * counts (see sa_batch.h).
     */
    int reads_groups = 0;

    /**
     * Cooperative cancellation, polled once before every sweep of
     * every read (the scalar chain and each lockstep group). Once it
     * trips, a read stops where it is: no further sweeps, no greedy
     * finish, and its SaResult is marked cancelled. The poll only
     * reads the token, so a run whose token never trips is
     * bit-identical to one without a token. nullptr = none.
     */
    const StopToken *stop = nullptr;
};

/** Work counters for one sample (observability; see MetricsRegistry). */
struct SaStats
{
    std::uint64_t sweeps = 0;
    std::uint64_t flips_attempted = 0; ///< single-spin + group proposals
    std::uint64_t flips_accepted = 0;
    std::uint64_t reads = 0;       ///< chains run
    std::uint64_t read_groups = 0; ///< lockstep groups of the extra reads
};

/** One sample. */
struct SaResult
{
    std::vector<std::int8_t> spins;
    double energy = 0.0;

    /** Work done producing this sample (aggregated over reads). */
    SaStats stats;

    /**
     * SaOptions::stop tripped before the anneal finished: the spins
     * are a partial anneal (stats.sweeps counts the sweeps that ran)
     * and callers should discard them. For a multi-read sample this
     * is set on the front result when any read was cut short.
     */
    bool cancelled = false;
};

/**
 * The compiled (flat) form of an Ising model plus its block-move
 * groups: everything SaSampler needs that does not change between
 * samples. Built once and shared — the annealer memoizes it next to
 * the embed cache entry so a frontend cache hit skips this build.
 */
struct SaCompiled
{
    qubo::CsrIsing csr;

    /** Block-move groups (qubit chains), in proposal order. */
    std::vector<std::vector<int>> groups;

    /** Spin -> group index, or -1. */
    std::vector<int> group_of;

    /**
     * Flattened in-group couplings, per group: the correction terms
     * that turn the sum of single-spin deltas into a block delta.
     * Edge e of group g lives at [edge_ptr[g], edge_ptr[g+1]) with
     * endpoints edge_u/edge_v and weight csr.w[edge_slot[e]].
     */
    std::vector<std::int32_t> edge_ptr;
    std::vector<std::int32_t> edge_u;
    std::vector<std::int32_t> edge_v;
    std::vector<std::int32_t> edge_slot;

    int numSpins() const { return csr.numSpins(); }

    /** Compile @p model (see CsrIsing::fromModel for include_zero). */
    static SaCompiled build(const qubo::IsingModel &model,
                            bool include_zero);

    /** (Re)compile the group tables for @p groups. */
    void compileGroups(const std::vector<std::vector<int>> &groups);
};

namespace detail {

/**
 * The incremental-state engine of one annealing chain: spins, the
 * cached local-field array and the running energy, with both the
 * O(1) cached deltas and the legacy-order fresh recomputations
 * (exposed separately so the exactness guard is property-testable
 * against brute-force energy differences).
 */
class IncrementalIsing
{
  public:
    /** Bind to a compiled model + coefficient view and set spins. */
    void reset(const SaCompiled &c, const double *h, const double *w,
               std::vector<std::int8_t> spins);

    /** Cached dE of flipping spin i: -2 s_i f_i. */
    double
    flipDelta(int i) const
    {
        return -2.0 * spins_[i] * f_[i];
    }

    /** dE of flipping spin i, local field re-summed in legacy order. */
    double freshFlipDelta(int i) const;

    /** Cached dE of flipping group g as a block. */
    double groupDelta(int g) const;

    /** Block dE via the legacy boundary-field summation order. */
    double freshGroupDelta(int g) const;

    /** Apply an accepted single-spin flip (dE already chosen). */
    void applyFlip(int i, double delta);

    /** Apply an accepted block flip of group g. */
    void applyGroup(int g, double delta);

    /** Running energy of the current spins. */
    double energy() const { return energy_; }

    const std::vector<std::int8_t> &spins() const { return spins_; }

    /** Move the spin state out (ends the run). */
    std::vector<std::int8_t>
    takeSpins()
    {
        return std::move(spins_);
    }

  private:
    const SaCompiled *c_ = nullptr;
    const double *h_ = nullptr;
    const double *w_ = nullptr;
    std::vector<std::int8_t> spins_;
    std::vector<double> f_; ///< cached local fields
    double energy_ = 0.0;   ///< running energy
};

} // namespace detail

/** Reusable SA sampler for a fixed Ising model. */
class SaSampler
{
  public:
    /** Preprocess @p model into the flat compiled form. */
    explicit SaSampler(const qubo::IsingModel &model);

    /** Wrap an already-compiled model (shared; not copied). */
    explicit SaSampler(std::shared_ptr<const SaCompiled> compiled);

    /**
     * Register spin groups (e.g. the qubit chains of an embedding).
     * Each sweep then also proposes flipping every group as a block,
     * which mixes chained problems dramatically better than
     * single-spin moves alone. Clones a shared compiled model
     * (copy-on-write) — pre-compiled callers bake groups into the
     * SaCompiled instead.
     */
    void setGroups(const std::vector<std::vector<int>> &groups);

    /**
     * Sample against externally-owned coefficient arrays instead of
     * the compiled base values: @p h has numSpins() entries, @p w
     * one per CSR entry (both twins of a coupling must carry the
     * same value). This is how the annealer applies per-sample
     * control-noise perturbations without recompiling; pass
     * (nullptr, nullptr) to restore the base coefficients. The
     * arrays must outlive subsequent sample()/energy() calls.
     */
    void setCoeffs(const double *h, const double *w);

    /**
     * Draw one sample with the given options and RNG. With
     * num_reads > 1 this is the best (lowest-energy) of
     * sampleAll(); ties keep the lowest read index.
     */
    SaResult sample(const SaOptions &opts, Rng &rng) const;

    /**
     * Run every read and return all samples ordered best-energy
     * first (stable: equal energies keep read order). The front
     * result's stats aggregate the work of all reads. Read 0 runs
     * against @p rng — afterwards @p rng has advanced exactly as a
     * num_reads=1 call, regardless of the read count; reads 1..N-1
     * are the lockstep groups.
     */
    std::vector<SaResult> sampleAll(const SaOptions &opts,
                                    Rng &rng) const;

    /** @return the number of spins. */
    int numSpins() const { return compiled_->numSpins(); }

    /**
     * Energy of an explicit spin state under the model (honors
     * setCoeffs).
     */
    double
    energy(const std::vector<std::int8_t> &spins) const
    {
        return compiled_->csr.energyWith(spins.data(), h_, w_);
    }

    /** The compiled model this sampler runs on. */
    const SaCompiled &compiled() const { return *compiled_; }

    /** The active field view (base values or the setCoeffs array). */
    const double *fields() const { return h_; }

    /** The active coupling view, one entry per CSR slot. */
    const double *couplings() const { return w_; }

  private:
    /** One independent annealing chain. */
    SaResult runChain(const SaOptions &opts, Rng &rng) const;

    std::shared_ptr<const SaCompiled> compiled_;
    const double *h_ = nullptr; ///< active coefficient view
    const double *w_ = nullptr;
    bool external_coeffs_ = false;
};

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_SA_SAMPLER_H
