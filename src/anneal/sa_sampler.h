/**
 * @file
 * Simulated-annealing sampler over an arbitrary Ising model. This is
 * the computational stand-in for the quantum annealing device (the
 * same role dwave-neal plays for the paper's noise-free simulator):
 * it receives the physical Ising problem and returns one sample of
 * spins plus its energy.
 *
 * Hot-loop layout: the model is compiled once into a flat CSR
 * adjacency (SaCompiled), and each chain (detail::IncrementalIsing)
 * keeps a cached local-field array f_i = h_i + sum_j J_ij s_j that is
 * updated incrementally on every accepted flip — O(deg) per
 * acceptance, O(1) per energy-delta read — with the sample energy
 * carried as a running value. Spins are +-1.0 doubles, not int8: a
 * char-typed store may alias anything, so with int8 spins every
 * accepted flip made the compiler reload the Rng state, the counters
 * and the array pointers. One pass over the spins and groups is one
 * IncrementalIsing::sweep call whose loop state (array pointers, the
 * running energy, the accept count and a copy of the caller's Rng)
 * lives in locals; flips_attempted is passes x proposals per pass.
 * Block moves walk each group as runs of consecutive spin indices
 * (one run per embedded chain: the annealer's dense qubit map makes
 * chains contiguous) and read the in-group couplings from one packed
 * {4w, u, v} array built per coefficient set. All of it is exact:
 * s * x rounds the same for s = +-1.0 as for an int8 s, and
 * (4w) s_u s_v as 4.0 * w * s_u * s_v. On micro_anneal's embedded
 * GC model (728 spins, 72 chains, 512 sweeps; embedded1 row, min over
 * 14 runs on a 4-vCPU AVX-512 Xeon) a proposal went from 17.5 ns with
 * int8 spins to 14.0 ns.
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
     * comment): ceil((N-1) / 8) groups of up to 8 lanes that fan out
     * across the shared WorkPool, so the SIMD per-core speedup
     * compounds with core count. The partition is a pure function of
     * num_reads — NEVER of the machine's core count, pool size or
     * ISA — so results stay bit-identical across thread counts (see
     * sa_batch.h).
     */
    int num_reads = 1;

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
    /**
     * Lockstep Metropolis decides the kernel's fast compare left to
     * the exact rule (detail::acceptUphill). Depends on the kernel's
     * ISA, unlike everything else here; 0 for the single-read chain.
     */
    std::uint64_t exact_decides = 0;
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
     * Each group as maximal runs of consecutive spin indices, in
     * member order: run r in [run_ptr[g], run_ptr[g+1]) of group g
     * covers spins [run_begin[r], run_end[r]). The annealer's dense
     * qubit map makes every embedded chain a single run.
     */
    std::vector<std::int32_t> run_ptr;
    std::vector<std::int32_t> run_begin;
    std::vector<std::int32_t> run_end;

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

/** One in-group coupling with its weight pre-scaled: 4 w_uv. */
struct ChainEdge
{
    double w4;
    std::int32_t u;
    std::int32_t v;
};

/**
 * The incremental-state engine of one annealing chain: spins, the
 * cached local-field array and the running energy, with both the
 * O(1) cached deltas and the legacy-order fresh recomputations
 * (exposed separately so the exactness guard is property-testable
 * against brute-force energy differences). The chain drives it one
 * pass at a time through sweep(); see the file comment for the state
 * layout.
 */
class IncrementalIsing
{
  public:
    /** Bind to a compiled model + coefficient view and set spins. */
    void reset(const SaCompiled &c, const double *h, const double *w,
               const std::vector<std::int8_t> &spins);

    /** Cached dE of flipping spin i: -2 s_i f_i. */
    double
    flipDelta(int i) const
    {
        return -2.0 * s_[i] * f_[i];
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

    /**
     * One proposal pass: every spin in index order, then every group
     * as a block. The Metropolis pass at @p beta draws a uniform from
     * @p rng exactly when dE > 0; with @p kGreedy it is the
     * zero-temperature descent, which accepts dE < 0 only and draws
     * nothing. @return the accepted proposals.
     */
    template <bool kGreedy>
    std::uint64_t sweep(double beta, Rng &rng);

    /** Running energy of the current spins. */
    double energy() const { return energy_; }

    /** The spins as +-1 (the SaResult form). */
    std::vector<std::int8_t> spins() const;

  private:
    const SaCompiled *c_ = nullptr;
    const double *h_ = nullptr;
    const double *w_ = nullptr;
    std::vector<double> s_;        ///< spins, +-1.0
    std::vector<double> f_;        ///< cached local fields
    std::vector<ChainEdge> edges_; ///< in-group couplings, per edge_ptr
    double energy_ = 0.0;          ///< running energy
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
