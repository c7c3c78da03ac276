/**
 * @file
 * Internal interface between the lockstep orchestrator
 * (sa_batch.cpp) and its per-ISA kernels, plus the Metropolis accept
 * rule the scalar chain (sa_sampler.cpp) shares with them. The vector
 * kernels live in separate translation units compiled with the
 * matching -m flags (and -ffp-contract=off, like the scalar TU: FMA
 * contraction would break the cross-ISA bit-equality contract);
 * everything ISA-neutral that both sides must agree on bit for bit —
 * the accept rule, the uniform-consumption rule, the counters — lives
 * here as shared code so the kernels cannot drift apart.
 *
 * Two decide paths implement one rule. The scalar and NEON kernels
 * keep each proposal's per-lane state in BatchCtx rows and decide
 * through decideLanes() below, against the exp(-x) bracket table —
 * the scalar kernel is the reference. The AVX2 and AVX-512 kernels
 * keep a proposal's dE, uniforms, accept mask, masked update term
 * and accept counters in registers and reach the same decisions
 * without a gather: they compare 64 beta dE against the -64 ln u
 * estimate BlockRng stored at refill (kDecideMargin). Both paths
 * hand the lanes their compare cannot settle to acceptUphill(); the
 * bit-equality and golden tests in tests/anneal pin them together.
 *
 * The shared helpers are `static`, not `inline`: an inline (comdat)
 * function compiled inside the -mavx2 TU could win the linker's
 * deduplication and leak AVX2 instructions into the portable call
 * sites. Internal linkage gives every TU its own copy, compiled
 * with that TU's own flags — same semantics, no ISA leak.
 */

#ifndef HYQSAT_ANNEAL_SA_BATCH_KERNELS_H
#define HYQSAT_ANNEAL_SA_BATCH_KERNELS_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "anneal/sa_batch.h"
#include "anneal/sa_sampler.h"
#include "util/cancel.h"
#include "util/simd.h"

namespace hyqsat::anneal::detail {

/** v with its bits ANDed against an accept mask (0 or ~0). */
static inline double
maskBits(double v, std::uint64_t m)
{
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & m);
}

/** Spin negated where the mask accepts (sign-bit xor). */
static inline double
flipSignMasked(double s, std::uint64_t m)
{
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(s) ^
                                 (m & 0x8000000000000000ull));
}

/** Lane padding quantum (one AVX2 register of doubles). */
inline constexpr int kLaneQuantum = 4;

/**
 * Accept-threshold table resolution: exp(-x) bracketed every 1/64
 * up to x = 32 (beyond which the bracket degenerates to
 * [0, exp(-32)) and almost every uniform rejects on the compare).
 */
inline constexpr int kAcceptTableN = 2048;
inline constexpr double kAcceptTableStep = 64.0;

/**
 * Bracket pairs for x in [j/64, (j+1)/64), j in [0, kAcceptTableN]:
 * entry 2j is an upper bound of exp(-x) (exp(-j/64) nudged up two
 * ulps), entry 2j+1 a lower bound (exp(-(j+1)/64) nudged down two
 * ulps; 0.0 for the clamped last pair). The nudge keeps the bracket
 * valid for any libm exp within one ulp of correctly rounded — the
 * table may be folded at compile time while exp() runs at run time,
 * and the two need not agree at a boundary — so exactness never
 * rests on libm being monotone. Pairs are adjacent, so both bounds
 * of a lane share a cache line. Built once, shared by every kernel
 * TU (single definition in sa_batch.cpp).
 */
const double *acceptTable();

/** Bracket pair of acceptTable() that covers x = beta * dE >= 0. */
static inline int
acceptBracket(double x)
{
    const double scaled = x * kAcceptTableStep;
    return scaled >= static_cast<double>(kAcceptTableN)
               ? kAcceptTableN
               : static_cast<int>(scaled);
}

/**
 * Metropolis accept decision for an uphill proposal, the one rule
 * every sampler path uses: bracket exp(-x) with the pair of @p table
 * (acceptTable()) that covers x; only a uniform landing between the
 * bounds pays for an exact exp(). x = beta * dE >= 0. Decides
 * exactly as `u < std::exp(-x)` (the AcceptRule tests pin it at
 * every table boundary). The clamp at j = kAcceptTableN pairs
 * exp(-32) with 0.0, so no separate underflow threshold is needed.
 * (decideLanes below runs the same bracket branch-free; the
 * AVX2/AVX-512 kernels reach the same decisions through
 * kDecideMargin.)
 */
static inline bool
acceptUphill(const double *table, double x, double u)
{
    const int j = acceptBracket(x);
    if (u >= table[2 * j])
        return false; // at/above the upper bound
    if (u < table[2 * j + 1])
        return true; // below the lower bound
    return u < std::exp(-x);
}

/**
 * The gather-free decide of the AVX2/AVX-512 kernels. At refill every
 * uniform u gets L(u), an estimate of T = -64 ln u with
 * |L - T| <= kDecideMargin / 2 (u = 0 stores NaN). An uphill lane
 * with s = 64 x (x = beta * dE, the product acceptUphill() takes, so
 * s is x scaled exactly) is a sure accept when s < L - delta and a
 * sure reject when s >= L + delta; every other lane, and every lane
 * with u = 0 (its NaN fails both compares), runs acceptOpenLane().
 *
 * Why that decides exactly as `u < exp(-x)`: s < L - delta gives
 * 64 x < T - delta/2 (the rounding of L - delta is ~1e-13, since
 * L <= 64 * 53 ln 2 < 2400), i.e. exp(-x) > u exp(delta/128): u sits
 * 3.9e-4 relative below exp(-x), far past the one-ulp error of libm's
 * exp. The reject side is symmetric; there u >= 2^-53 also keeps
 * exp(-x) normal or far below u. The estimate's bits may differ
 * between ISAs — only its bound matters. With delta = 0.05 the band
 * that still needs acceptUphill() is 2 delta / 64 of ln u wide,
 * about a tenth of one table bracket.
 */
inline constexpr double kDecideMargin = 0.05;

/**
 * The reference decision for a lane the AVX2/AVX-512 compare left
 * open: acceptUphill(), counted in @p exact. A NaN dE (only
 * non-finite coefficients make one) is not uphill and decides as
 * decideLanes() clamps it, at x = 0: accepted below the first
 * bracket's lower bound.
 */
static inline bool
acceptOpenLane(const double *table, double beta, double d, double u,
               std::uint64_t &exact)
{
    if (!(d > 0.0))
        return u < table[1];
    ++exact;
    return acceptUphill(table, beta * d, u);
}

/**
 * L(u) = k (-64 ln 2) + Q(f) for u = (1 + f) 2^k, f in [0, 1): Q is
 * the degree-4 minimax polynomial of -64 ln(1 + f), coefficients
 * from f^0 up. k and f are exact, so the error is Q's, at most
 * 0.0039 (the AcceptRule tests check it against a long double log
 * over a dense mantissa grid and at every binade's ends), plus
 * ~1e-12 of rounding — under kDecideMargin / 2 = 0.025 by 6x.
 */
inline constexpr double kLogPoly[5] = {-0.00388570201118, -63.7786074841,
                                       29.9414247898, -14.13705859,
                                       3.62059313252};
inline constexpr double kMinus64Ln2 = -64.0 * std::numbers::ln2;

/** The portable L(u) (kLogPoly); the vector fills mirror it. */
static inline double
minusLog64(double u)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
    const double k = static_cast<double>(static_cast<int>(bits >> 52) - 1023);
    const double f = std::bit_cast<double>(
                         (bits & 0x000fffffffffffffull) |
                         0x3ff0000000000000ull) -
                     1.0;
    double q = kLogPoly[4];
    q = q * f + kLogPoly[3];
    q = q * f + kLogPoly[2];
    q = q * f + kLogPoly[1];
    q = q * f + kLogPoly[0];
    return u > 0.0 ? k * kMinus64Ln2 + q
                   : std::numeric_limits<double>::quiet_NaN();
}

/**
 * BlockRng refill kernels: u[k] = BlockRng(seed).uniformAt(first +
 * k) and l[k] = L(u[k]) (kDecideMargin) for k < n. The hash is
 * integer arithmetic and the >> 11 conversion to double is exact, so
 * every ISA's fill writes the same uniforms. Each is defined in its
 * kernel's translation unit; the portable one in sa_batch.cpp, where
 * a null @p l skips the estimates: the scalar and NEON kernels decide
 * on the bracket table and never read them.
 */
using UniformFill = void (*)(std::uint64_t seed, std::uint64_t first,
                             double *u, double *l, std::size_t n);
void fillUniformsScalar(std::uint64_t seed, std::uint64_t first,
                        double *u, double *l, std::size_t n);
#if defined(HYQSAT_HAVE_AVX2_KERNEL)
void fillUniformsAvx2(std::uint64_t seed, std::uint64_t first,
                      double *u, double *l, std::size_t n);
#endif
#if defined(HYQSAT_HAVE_AVX512_KERNEL)
void fillUniformsAvx512(std::uint64_t seed, std::uint64_t first,
                        double *u, double *l, std::size_t n);
#endif

/**
 * Test views of the vector kernels' decide machinery, over whole
 * vectors (n a multiple of 4 or 8): minusLog64Avx*() stores the
 * fill's L(u[k]) into l[k] for any u in [0, 1); decideUphillAvx*()
 * runs the kernel's decide on n real lanes of dE d[k], uniform u[k]
 * and estimate l[k] at @p beta, setting accept[k] (~0 / 0) and
 * adding one to exact[k] for each lane it handed to acceptUphill().
 */
using LogFill = void (*)(const double *u, double *l, std::size_t n);
using DecideProbe = void (*)(double beta, const double *d,
                             const double *u, const double *l,
                             std::size_t n, std::uint64_t *accept,
                             std::uint64_t *exact);
#if defined(HYQSAT_HAVE_AVX2_KERNEL)
void minusLog64Avx2(const double *u, double *l, std::size_t n);
void decideUphillAvx2(double beta, const double *d, const double *u,
                      const double *l, std::size_t n,
                      std::uint64_t *accept, std::uint64_t *exact);
#endif
#if defined(HYQSAT_HAVE_AVX512_KERNEL)
void minusLog64Avx512(const double *u, double *l, std::size_t n);
void decideUphillAvx512(double beta, const double *d, const double *u,
                        const double *l, std::size_t n,
                        std::uint64_t *accept, std::uint64_t *exact);
#endif

/** Working state of one lockstep run (buffers owned by the caller). */
struct BatchCtx
{
    const SaCompiled *c = nullptr;
    const double *h = nullptr;
    const double *w = nullptr;

    int n = 0;     ///< spins
    int reads = 0; ///< real lanes
    int lanes = 0; ///< padded to a multiple of kLaneQuantum

    double *spins = nullptr;  ///< n * lanes SoA, +1.0 / -1.0
    double *fields = nullptr; ///< n * lanes SoA cached local fields

    const double *betas = nullptr; ///< per-sweep schedule
    int sweeps = 0; ///< on return: the sweeps that ran
    bool greedy = false;

    /** Polled before every sweep (sweepCancelled); nullptr = none. */
    const StopToken *stop = nullptr;

    BlockRng *rng = nullptr; ///< shared Metropolis stream

    // Per-lane rows of the memory-row decide path (scalar and NEON
    // kernels), all `lanes` wide; the AVX2/AVX-512 kernels keep this
    // state in registers and never touch them.
    double *delta = nullptr;
    double *tmp = nullptr;         ///< masked-update term buffer
    std::uint64_t *mask = nullptr; ///< ~0ull accept / 0ull reject

    // Outputs.
    double *accepted = nullptr;  ///< per-lane acceptance counts
    std::uint64_t *exact = nullptr; ///< per-lane decides acceptUphill()
                                    ///< settled (the compare could not)
    std::uint64_t attempts = 0;  ///< proposals seen (per lane; equal
                                 ///< across lanes by lockstep)
    bool cancelled = false;      ///< stop tripped; greedy skipped
};

/**
 * The lockstep sweep loop's cancellation point, shared by every
 * kernel: called before sweep @p sweep, it reports whether the stop
 * token has tripped, and if so records the cut (ctx.sweeps becomes
 * the number of sweeps that ran, ctx.cancelled is set). The kernel
 * then leaves its sweep loop and skips the greedy finish. One relaxed
 * load per sweep that changes nothing while the token is untripped.
 */
static inline bool
sweepCancelled(BatchCtx &ctx, int sweep)
{
    if (!ctx.stop || !ctx.stop->stopRequested())
        return false;
    ctx.sweeps = sweep;
    ctx.cancelled = true;
    return true;
}

/**
 * Exact-exp fixup for the rare lanes whose uniform (@p u, the
 * proposal's lanes) landed BETWEEN the accept table's bracket bounds
 * (pass 1 left their mask 0). Re-runs acceptUphill() per undecided
 * uphill lane — the rare path pays a few redundant compares so the
 * hot pass-1 loop only has to track ONE "some lane is ambiguous"
 * flag instead of a per-lane bitmask that would cap the lane count
 * at the word width — and counts the lanes that were between the
 * bounds in ctx.exact. Returns ~0 if any lane flipped to accept, 0
 * otherwise.
 */
static inline std::uint64_t
resolveAmbiguousLanes(BatchCtx &ctx, const double *u, double beta)
{
    const double *table = acceptTable();
    std::uint64_t flipped = 0;
    for (int r = 0; r < ctx.reads; ++r) {
        const double d = ctx.delta[r];
        // Downhill lanes and bracket-decided accepts were settled
        // in pass 1.
        if (ctx.mask[r] != 0 || !(d > 0.0))
            continue;
        const double x = beta * d;
        ctx.exact[r] += u[r] < table[2 * acceptBracket(x)];
        if (acceptUphill(table, x, u[r])) {
            ctx.mask[r] = ~0ull;
            ctx.accepted[r] += 1.0;
            flipped = ~0ull;
        }
    }
    return flipped;
}

/**
 * The memory-row decide path of the scalar and NEON kernels.
 * Decide every lane of the proposal whose per-lane dE sits in
 * ctx.delta: fill ctx.mask, bump the per-lane acceptance counters
 * and ctx.attempts, and return whether any lane accepted.
 *
 * The shared-stream consumption rule (part of the batched golden
 * contract): `lanes` uniforms are taken if and only if at least one
 * REAL lane is uphill. Padded lanes never consume, never accept.
 * Metropolis proposals accept dE <= 0 outright; the zero-temperature
 * greedy finish (@p metropolis false) accepts only dE < 0 and draws
 * nothing.
 */
static inline bool
decideLanes(BatchCtx &ctx, double beta, bool metropolis)
{
    const int lanes = ctx.lanes;
    const int reads = ctx.reads;
    ++ctx.attempts;

    if (!metropolis) {
        // Zero-temperature greedy finish: strict descent, no draws.
        bool any_accept = false;
        for (int r = 0; r < lanes; ++r) {
            const bool accept = r < reads && ctx.delta[r] < 0.0;
            ctx.mask[r] = accept ? ~0ull : 0ull;
            ctx.accepted[r] += accept ? 1.0 : 0.0;
            any_accept |= accept;
        }
        return any_accept;
    }

    bool any_uphill = false;
    for (int r = 0; r < reads; ++r)
        any_uphill |= ctx.delta[r] > 0.0;
    if (!any_uphill) {
        // Every real lane is downhill or flat: all accept, and the
        // shared stream is untouched (the consumption rule).
        for (int r = 0; r < lanes; ++r) {
            const bool accept = r < reads;
            ctx.mask[r] = accept ? ~0ull : 0ull;
            ctx.accepted[r] += accept ? 1.0 : 0.0;
        }
        return true;
    }

    // Through a lambda: its closure type is local to this TU, and so
    // is the BlockRng::next instantiation (see there).
    const double *uniforms =
        ctx.rng
            ->next(static_cast<std::size_t>(lanes),
                   [](std::uint64_t seed, std::uint64_t first, double *u,
                      double *, std::size_t n) {
                       fillUniformsScalar(seed, first, u, nullptr, n);
                   })
            .u;
    const double *table = acceptTable();
    // Pass 1, genuinely branchless (this loop runs once per proposal
    // for every lane — one mispredicted per-lane branch here costs
    // more than all the vector arithmetic around it, so everything
    // is bitwise bool math and min/max-style clamps, never || / ?:
    // on lane data): decide each lane from the exp(-x) bracket table
    // alone, deferring the rare uniform that lands BETWEEN the
    // bounds to the exact-exp fixup. Identical decisions to
    // acceptUphill(), lane by lane.
    unsigned ambiguous = 0;
    std::uint64_t mask_or = 0;
    for (int r = 0; r < lanes; ++r) {
        const double d = ctx.delta[r];
        const double u = uniforms[r];
        double scaled = (beta * d) * kAcceptTableStep;
        scaled = scaled > 0.0 ? scaled : 0.0; // maxsd, not a branch
        scaled = scaled < static_cast<double>(kAcceptTableN)
                     ? scaled
                     : static_cast<double>(kAcceptTableN); // minsd
        const int j = static_cast<int>(scaled);
        const unsigned down = static_cast<unsigned>(d <= 0.0);
        const unsigned real = static_cast<unsigned>(r < reads);
        const unsigned below_lo =
            static_cast<unsigned>(u < table[2 * j + 1]);
        const unsigned below_hi =
            static_cast<unsigned>(u < table[2 * j]);
        const unsigned sure = down | below_lo;
        const std::uint64_t m =
            ~(static_cast<std::uint64_t>(real & sure) - 1ull);
        ctx.mask[r] = m;
        mask_or |= m;
        ctx.accepted[r] += maskBits(1.0, m);
        ambiguous |= real & below_hi & (sure ^ 1u);
    }
    if (ambiguous != 0)
        mask_or |= resolveAmbiguousLanes(ctx, uniforms, beta);
    return mask_or != 0;
}

/**
 * Marks the helper lambdas of a register-resident kernel: they
 * capture the lane state by reference, so a helper the compiler
 * leaves out of line (decide is called from the single-spin and the
 * block-move loop) would pin that state to the stack for the whole
 * run.
 */
#define HYQSAT_KERNEL_INLINE __attribute__((always_inline))

/**
 * Per-vector proposal state of the register-resident kernels: @p V
 * values of @p Lanes (one vector's lanes) that the compiler keeps in
 * registers once the constant-count loops over them unroll, or a
 * run-time count on the heap when V == 0 (groups wider than the
 * unrolled instantiations).
 */
template <class Lanes, int V>
class LaneSet
{
  public:
    explicit LaneSet(int) {}
    Lanes &operator[](int v) { return x_[v]; }

  private:
    Lanes x_[V];
};

template <class Lanes>
class LaneSet<Lanes, 0>
{
  public:
    explicit LaneSet(int vecs) : x_(static_cast<std::size_t>(vecs)) {}
    Lanes &operator[](int v) { return x_[static_cast<std::size_t>(v)]; }

  private:
    std::vector<Lanes> x_;
};

/**
 * Run the full anneal (sweeps, block moves, optional greedy finish)
 * over ctx with the scalar fallback kernel. Always compiled.
 */
void runLockstepScalar(BatchCtx &ctx);

#if defined(HYQSAT_HAVE_AVX2_KERNEL)
/**
 * AVX2 kernel (separate TU, -mavx2): register-resident decide,
 * bit-identical to scalar.
 */
void runLockstepAvx2(BatchCtx &ctx);
#endif

#if defined(HYQSAT_HAVE_AVX512_KERNEL)
/**
 * AVX-512 kernel (separate TU, -mavx512f -mavx512dq): register-
 * resident decide, bit-identical to scalar. Only dispatched when
 * lanes is a multiple of 8.
 */
void runLockstepAvx512(BatchCtx &ctx);
#endif

#if defined(HYQSAT_HAVE_NEON_KERNEL)
/**
 * NEON kernel (separate TU): vector arithmetic around the shared
 * decideLanes(), bit-identical to scalar.
 */
void runLockstepNeon(BatchCtx &ctx);
#endif

} // namespace hyqsat::anneal::detail

#endif // HYQSAT_ANNEAL_SA_BATCH_KERNELS_H
