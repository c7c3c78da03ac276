/**
 * @file
 * Lockstep multi-read simulated annealing: N decorrelated reads
 * advance through ONE instruction stream over an SoA spin/local-field
 * layout, so num_reads pays for itself on a single core instead of
 * relying on WorkPool threads.
 *
 * Layout: spin i of read r lives at [i * lanes + r] as a double
 * (+1.0 / -1.0); the cached local fields use the same stride. Every
 * proposal computes all lanes' dE with one vectorized pass, decides
 * each lane with a shared per-lane rule, then applies the accepted
 * lanes with masked updates — the rejected lanes see bitwise no-ops.
 * The AVX2/AVX-512 kernels keep that per-proposal state in registers
 * (see sa_batch_kernels.h).
 *
 * Randomness: a counter-based splitmix64 generator (BlockRng) fills
 * uniforms in cache-sized blocks instead of one draw per uphill
 * move and serves each proposal's uniforms in place, each with an
 * estimate of -64 ln u stored at refill. The Metropolis accept test
 * is a compare — against that estimate in the AVX2/AVX-512 kernels,
 * against the precomputed exp(-x) bracket table in the scalar
 * kernel — with an exact exp() fallback only in the rare
 * ambiguous band the compare cannot settle.
 *
 * Two-level parallel scheduler (PR 10): num_reads is partitioned
 * into ceil(num_reads / 8) balanced lockstep groups of 4 or 8 lanes
 * (lockstepGroupCount) and the groups fan out across the shared
 * WorkPool, so total throughput is roughly (vector speedup) x (core
 * count). Each group is an independent lockstep run over its own
 * SoA buffers and its own decorrelated BlockRng base derived purely
 * from (seed, group index); groups write disjoint result slots, so
 * no merge contention exists by construction.
 *
 * Determinism contract (the batched path's own golden, distinct from
 * the frozen scalar sa_reference.h contract): results are a pure
 * function of (base seed, model, options) and are
 * bit-identical across ISAs — the AVX2/AVX-512 kernels mirror
 * the scalar fallback's per-lane operation order exactly and are
 * built without FMA contraction — AND across thread counts: the
 * group partition and per-group seeds never depend on the pool size,
 * core count or scheduling interleaving, only on the options. Golden
 * tests in tests/anneal pin the BlockRng stream and digests of the
 * sampled spins, energies and counters (LockstepGolden).
 */

#ifndef HYQSAT_ANNEAL_SA_BATCH_H
#define HYQSAT_ANNEAL_SA_BATCH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "anneal/sa_sampler.h"
#include "util/simd.h"

namespace hyqsat::anneal {

class WorkPool;

/**
 * Counter-based splitmix64 uniform stream with block refill. Word k
 * of seed s is splitmix64_mix(s + (k+1) * golden); the sequential
 * next() interface serves them in place from a cache-sized buffer,
 * each uniform u next to L(u), an estimate of -64 ln u the refill
 * stores beside it (the lockstep kernels' gather-free decide, see
 * sa_batch_kernels.h). Counter addressing keeps the stream
 * random-access for golden tests and makes the draw order
 * independent of block boundaries.
 */
class BlockRng
{
  public:
    static constexpr std::size_t kBlock = 1024;

    /**
     * One sequential draw: u[k] is the uniform at stream position
     * cursor() + k, l[k] its estimate of -64 ln u[k].
     */
    struct Draw
    {
        const double *u;
        const double *l;
    };

    explicit BlockRng(std::uint64_t seed) : seed_(seed) {}

    std::uint64_t seed() const { return seed_; }

    /** Raw 64-bit word at stream position @p index. */
    std::uint64_t
    wordAt(std::uint64_t index) const
    {
        std::uint64_t z = seed_ + (index + 1) * 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1) at stream position @p index. */
    double
    uniformAt(std::uint64_t index) const
    {
        return static_cast<double>(wordAt(index) >> 11) * 0x1.0p-53;
    }

    /**
     * The next @p count uniforms of the sequential stream and their
     * estimates, read in place from the block buffers; the pointers
     * stay valid until the next call. When fewer than @p count
     * remain buffered, the unread tail moves to the buffer front and
     * @p fill tops the buffers up: fill(seed, first, u, l, n) must
     * store uniformAt(first + k) into u[k] and, if the caller reads
     * them, its estimate into l[k] for k < n (detail::UniformFill
     * states the estimate's bound). So a count that does not divide
     * kBlock still gets one contiguous run. Requires
     * @p count <= kBlock; a lockstep group draws at most 8. Kernels
     * pass @p fill as a lambda: its closure type is local to the
     * kernel's translation unit, which keeps each ISA-specific
     * instantiation of this template out of the shared (comdat)
     * copies the portable TUs link against.
     */
    template <class Fill>
    Draw
    next(std::size_t count, Fill &&fill)
    {
        if (filled_ - pos_ < count) [[unlikely]]
            return refill(count, fill);
        const Draw out{buf_ + pos_, lbuf_ + pos_};
        pos_ += count;
        return out;
    }

    /** Stream position of the next sequential draw. */
    std::uint64_t cursor() const { return base_ + pos_; }

  private:
    /**
     * next() past the buffered uniforms: keep the unread tail, fill
     * the rest and serve @p count from the front. Out of line, so
     * the kernels' proposal loops carry only the call.
     */
    template <class Fill>
    [[gnu::noinline]] Draw
    refill(std::size_t count, Fill &fill)
    {
        const std::size_t tail = filled_ - pos_;
        base_ += pos_;
        std::memmove(buf_, buf_ + pos_, tail * sizeof(double));
        std::memmove(lbuf_, lbuf_ + pos_, tail * sizeof(double));
        fill(seed_, base_ + tail, buf_ + tail, lbuf_ + tail, kBlock - tail);
        filled_ = kBlock;
        pos_ = count;
        return {buf_, lbuf_};
    }

    std::uint64_t seed_;
    std::uint64_t base_ = 0; ///< stream index of buf_[0]
    std::size_t filled_ = 0;
    std::size_t pos_ = 0;
    alignas(64) double buf_[kBlock];  ///< uniforms
    alignas(64) double lbuf_[kBlock]; ///< their -64 ln u estimates
};

/**
 * Number of parallel lockstep groups a batched run of @p reads reads
 * uses: ceil(reads / 8), so the balanced partition gives every group
 * 4 or 8 lanes once padded to kLaneQuantum. Pure in @p reads: the
 * machine's core count, pool size and ISA never enter — that is the
 * cross-thread-count half of the determinism contract.
 */
inline int
lockstepGroupCount(int reads)
{
    return reads < 1 ? 1 : (reads + 7) / 8;
}

/**
 * Decorrelated BlockRng base of lockstep group @p group under run
 * seed @p base. Group 0 keeps @p base verbatim (a single-group run
 * is bit-identical to the pre-scheduler path); later groups get a
 * full splitmix64 finalizer over a distinct odd stride — a plain
 * golden-ratio offset would land inside the lane-init seed family
 * (BlockRng streams whose seeds differ by k * golden are the same
 * stream shifted by k words).
 */
inline std::uint64_t
lockstepGroupSeed(std::uint64_t base, int group)
{
    if (group == 0)
        return base;
    std::uint64_t z =
        base + static_cast<std::uint64_t>(group) * 0xd1342543de82ef95ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Run all reads of @p opts in lockstep over the compiled model and
 * return them in read order (not sorted), each with its own per-read
 * stats (reads=1; flips_attempted counts every proposal each lane of
 * its group saw). @p h / @p w are the coefficient views (never
 * null); @p base seeds group 0's shared Metropolis stream and
 * per-lane init streams (lane r of a group draws its initial spins
 * from BlockRng(group_seed + (r+1) * golden)); further groups use
 * lockstepGroupSeed(base, g). @p isa picks the kernel; an ISA this
 * binary or host cannot run silently degrades to the scalar
 * fallback, which is bit-identical by contract.
 *
 * With more than one group (lockstepGroupCount) the groups fan out
 * across @p pool (nullptr = the shared process pool), each writing
 * its own disjoint slice of the result vector; the pool only decides
 * WHERE a group runs, never what it computes, so results are
 * bit-identical for any pool size including a dedicated
 * WorkPool(0).
 *
 * opts.stop is polled before every sweep of every group: a group
 * that sees it tripped stops there, skips the greedy finish and
 * marks its reads cancelled (stats.sweeps = the sweeps that ran).
 */
std::vector<SaResult> sampleLockstep(const SaCompiled &compiled,
                                     const double *h, const double *w,
                                     const SaOptions &opts,
                                     std::uint64_t base, simd::Isa isa,
                                     WorkPool *pool = nullptr);

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_SA_BATCH_H
