/**
 * @file
 * AVX-512 lockstep kernel over 8-wide __m512d vectors. One
 * proposal's state stays in registers from the field load to the
 * masked update: the per-lane dE (a block move sums its members and
 * in-chain edges into a register accumulator), the uniforms (loaded
 * straight from the BlockRng buffer), the accept mask (a mask
 * register out of the compares), the masked update term and the
 * per-lane accept counters. Only the SoA spin and field rows live in
 * memory. The loop body is a template over the vector count,
 * compiled for one vector (every auto-sized group of 5..8 reads) and
 * once for a run-time count (explicitly wider groups).
 *
 * Compiled in its own translation unit with -mavx512f -mavx512dq
 * -ffp-contract=off; the dispatcher only calls in here after a
 * runtime CPU check AND when the padded lane count is a multiple of
 * 8 (narrower batches keep the lane-count-dependent uniform stream
 * of the 4-lane quantum and run on the AVX2 or scalar kernel
 * instead).
 *
 * No FMA intrinsics anywhere — multiply and add stay separate
 * instructions so every lane computes bit-identically to
 * runLockstepScalar, the reference. Decisions, uniform consumption
 * and counters are those of the shared decideLanes(), reached
 * without a gather: the refill stores each uniform's -64 ln u
 * estimate (getexp/getmant plus kLogPoly) and decide compares
 * 64 beta dE against it (kDecideMargin). The bit-equality and
 * golden tests in tests/anneal pin the two together.
 */

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "anneal/sa_batch_kernels.h"

namespace hyqsat::anneal::detail {

namespace {

/**
 * L(u) of 8 uniforms in [0, 1): the portable minusLog64() with the
 * exponent from getexp and the mantissa in [1, 2) from getmant.
 */
inline __m512d
minusLog64(__m512d u)
{
    const __m512d k = _mm512_getexp_pd(u);
    const __m512d f = _mm512_sub_pd(
        _mm512_getmant_pd(u, _MM_MANT_NORM_1_2, _MM_MANT_SIGN_src),
        _mm512_set1_pd(1.0));
    __m512d q = _mm512_set1_pd(kLogPoly[4]);
    for (int j = 3; j >= 0; --j)
        q = _mm512_add_pd(_mm512_mul_pd(q, f), _mm512_set1_pd(kLogPoly[j]));
    const __m512d l =
        _mm512_add_pd(_mm512_mul_pd(k, _mm512_set1_pd(kMinus64Ln2)), q);
    // u = 0 stores NaN, so its lane always takes the exact rule.
    return _mm512_mask_mov_pd(
        l, _mm512_cmp_pd_mask(u, _mm512_setzero_pd(), _CMP_EQ_OQ),
        _mm512_set1_pd(std::numeric_limits<double>::quiet_NaN()));
}

/** Store the @p n < 8 leading lanes of @p v (all 8 when n >= 8). */
inline void
storeLanes(double *out, __m512d v, std::size_t n)
{
    if (n >= 8)
        _mm512_storeu_pd(out, v);
    else
        _mm512_mask_storeu_pd(
            out, static_cast<__mmask8>((1u << n) - 1u), v);
}

} // namespace

void
fillUniformsAvx512(std::uint64_t seed, std::uint64_t first, double *u,
                   double *l, std::size_t n)
{
    // The splitmix64 finalizer of BlockRng::wordAt, 8 counters per
    // vector; vpmullq wraps mod 2^64 like the scalar multiply, and
    // a 53-bit value converts to double exactly.
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    const auto splat = [](std::uint64_t x) {
        return _mm512_set1_epi64(static_cast<long long>(x));
    };
    const __m512i m1 = splat(0xbf58476d1ce4e5b9ull);
    const __m512i m2 = splat(0x94d049bb133111ebull);
    const __m512i step = splat(8 * kGolden);
    const __m512d scale = _mm512_set1_pd(0x1.0p-53);
    __m512i counter = _mm512_add_epi64(
        splat(seed + (first + 1) * kGolden),
        _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                           splat(kGolden)));
    for (std::size_t i = 0; i < n; i += 8) {
        __m512i z = counter;
        counter = _mm512_add_epi64(counter, step);
        z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), m1);
        z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), m2);
        z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
        const __m512d vu = _mm512_mul_pd(
            _mm512_cvtepu64_pd(_mm512_srli_epi64(z, 11)), scale);
        storeLanes(u + i, vu, n - i);
        storeLanes(l + i, minusLog64(vu), n - i);
    }
}

void
minusLog64Avx512(const double *u, double *l, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8)
        _mm512_storeu_pd(l + i, minusLog64(_mm512_loadu_pd(u + i)));
}

namespace {

/** One 8-lane vector's share of the proposal state. */
struct Lanes8
{
    __m512d acc;   ///< accept counters (live for the whole run)
    __m512d s;     ///< the proposed spin's row (single-spin moves)
    __m512d d;     ///< dE
    __m512d t;     ///< masked update term (2 s) & accept
    __mmask8 real; ///< lanes < reads
    __mmask8 m;    ///< accept mask
};

/**
 * Exact-exp fixup for the rare lanes (@p open) of one vector that
 * the estimate compare could not settle: the shared acceptOpenLane()
 * per lane. Returns the lanes it accepts.
 */
__mmask8
resolveExact(__m512d d, const double *u, __mmask8 open, double beta,
             std::uint64_t *exact)
{
    alignas(64) double dd[8];
    _mm512_store_pd(dd, d);
    const double *table = acceptTable();
    unsigned accept = 0;
    for (unsigned bits = open; bits != 0; bits &= bits - 1) {
        const int r = std::countr_zero(bits);
        if (acceptOpenLane(table, beta, dd[r], u[r], exact[r]))
            accept |= 1u << r;
    }
    return static_cast<__mmask8>(accept);
}

/**
 * Metropolis accept mask of one vector's @p real lanes with dE @p d,
 * uniforms @p u and their estimates @p l (kDecideMargin): downhill
 * lanes and sure accepts take it, sure rejects do not, the rest (a
 * NaN in dE or L fails every compare) go to resolveExact().
 */
HYQSAT_KERNEL_INLINE inline __mmask8
decideVector(__m512d d, __mmask8 real, double beta, const double *u,
             const double *l, std::uint64_t *exact)
{
    const __m512d zero = _mm512_setzero_pd();
    const __m512d margin = _mm512_set1_pd(kDecideMargin);
    const __m512d vl = _mm512_loadu_pd(l);
    const __m512d s = _mm512_mul_pd(
        _mm512_mul_pd(_mm512_set1_pd(beta), d), _mm512_set1_pd(64.0));
    const __mmask8 sure =
        _mm512_cmp_pd_mask(d, zero, _CMP_LE_OQ) |
        _mm512_cmp_pd_mask(s, _mm512_sub_pd(vl, margin), _CMP_LT_OQ);
    const __mmask8 open =
        _mm512_mask_cmp_pd_mask(real, s, _mm512_add_pd(vl, margin),
                                _CMP_NGE_UQ) &
        static_cast<__mmask8>(~sure);
    __mmask8 m = real & sure;
    if (open != 0) [[unlikely]]
        m |= resolveExact(d, u, open, beta, exact);
    return m;
}

} // namespace

void
decideUphillAvx512(double beta, const double *d, const double *u,
                   const double *l, std::size_t n, std::uint64_t *accept,
                   std::uint64_t *exact)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 m = decideVector(_mm512_loadu_pd(d + i), 0xff,
                                        beta, u + i, l + i, exact + i);
        for (int r = 0; r < 8; ++r)
            accept[i + static_cast<std::size_t>(r)] =
                (m >> r) & 1u ? ~0ull : 0ull;
    }
}

namespace {

template <int V>
void
runKernel(BatchCtx &ctx)
{
    const SaCompiled &c = *ctx.c;
    const int n = ctx.n;
    const int lanes = ctx.lanes;
    const int vecs = V > 0 ? V : lanes / 8;
    const std::size_t num_groups = c.groups.size();
    const double *const w = ctx.w;
    const std::int32_t *const row_ptr = c.csr.row_ptr.data();
    const std::int32_t *const col = c.csr.col.data();
    const __m512d minus2 = _mm512_set1_pd(-2.0);
    const __m512d two = _mm512_set1_pd(2.0);
    const __m512d zero = _mm512_setzero_pd();
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512i sign = _mm512_set1_epi64(
        static_cast<long long>(0x8000000000000000ull));

    LaneSet<Lanes8, V> L(vecs);
    for (int v = 0; v < vecs; ++v) {
        const int live = std::clamp(ctx.reads - 8 * v, 0, 8);
        L[v].real = static_cast<__mmask8>((1u << live) - 1u);
        L[v].acc = zero;
    }
    std::uint64_t attempts = 0;

    const auto rowOf = [lanes](double *base, int i) HYQSAT_KERNEL_INLINE {
        return base + static_cast<std::size_t>(i) * lanes;
    };

    const auto countAccepts = [&]() HYQSAT_KERNEL_INLINE {
        for (int v = 0; v < vecs; ++v)
            L[v].acc = _mm512_mask_add_pd(L[v].acc, L[v].m, L[v].acc, one);
    };

    /**
     * Metropolis decide over L[v].d: set L[v].m and the counters,
     * return whether any lane accepted. Uniforms are consumed iff a
     * real lane is uphill (the shared consumption rule).
     */
    const auto decide = [&](double beta) HYQSAT_KERNEL_INLINE {
        ++attempts;
        unsigned up = 0;
        for (int v = 0; v < vecs; ++v)
            up |= _mm512_mask_cmp_pd_mask(L[v].real, L[v].d, zero,
                                          _CMP_GT_OQ);
        if (up == 0) {
            // Every real lane downhill or flat: all accept, and the
            // shared stream is untouched.
            for (int v = 0; v < vecs; ++v)
                L[v].m = L[v].real;
            countAccepts();
            return true;
        }
        const BlockRng::Draw draw =
            ctx.rng->next(static_cast<std::size_t>(lanes),
                          [](auto... a) { fillUniformsAvx512(a...); });
        unsigned any = 0;
        for (int v = 0; v < vecs; ++v) {
            L[v].m = decideVector(L[v].d, L[v].real, beta, draw.u + 8 * v,
                                  draw.l + 8 * v, ctx.exact + 8 * v);
            any |= L[v].m;
        }
        countAccepts();
        return any != 0;
    };

    /** Zero-temperature greedy decide: strict descent, no draws. */
    const auto decideGreedy = [&]() HYQSAT_KERNEL_INLINE {
        ++attempts;
        unsigned any = 0;
        for (int v = 0; v < vecs; ++v) {
            L[v].m = _mm512_mask_cmp_pd_mask(L[v].real, L[v].d, zero,
                                             _CMP_LT_OQ);
            any |= L[v].m;
        }
        countAccepts();
        return any != 0;
    };

    const auto flipDeltas = [&](int i) HYQSAT_KERNEL_INLINE {
        const double *s = rowOf(ctx.spins, i);
        const double *f = rowOf(ctx.fields, i);
        for (int v = 0; v < vecs; ++v) {
            L[v].s = _mm512_loadu_pd(s + 8 * v);
            L[v].d = _mm512_mul_pd(_mm512_mul_pd(L[v].s, minus2),
                                   _mm512_loadu_pd(f + 8 * v));
        }
    };

    // f_j -= w_ij * t over spin i's neighbors, t = (2 s_i) & accept
    // (the ×2 is exact, so w * t rounds identically to (2w) * s; a
    // rejected lane subtracts a zero).
    const auto scatterUpdates = [&](int i) HYQSAT_KERNEL_INLINE {
        for (std::int32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
            const __m512d vw = _mm512_set1_pd(w[k]);
            double *fj = rowOf(ctx.fields, col[k]);
            for (int v = 0; v < vecs; ++v) {
                _mm512_storeu_pd(
                    fj + 8 * v,
                    _mm512_sub_pd(_mm512_loadu_pd(fj + 8 * v),
                                  _mm512_mul_pd(vw, L[v].t)));
            }
        }
    };

    const auto flipSpins = [&](double *s) HYQSAT_KERNEL_INLINE {
        for (int v = 0; v < vecs; ++v) {
            const __m512i vs = _mm512_loadu_si512(s + 8 * v);
            _mm512_storeu_si512(
                s + 8 * v, _mm512_mask_xor_epi64(vs, L[v].m, vs, sign));
        }
    };

    const auto applyFlip = [&](int i) HYQSAT_KERNEL_INLINE {
        for (int v = 0; v < vecs; ++v)
            L[v].t = _mm512_maskz_mul_pd(L[v].m, two, L[v].s);
        scatterUpdates(i);
        flipSpins(rowOf(ctx.spins, i));
    };

    const auto groupDeltas = [&](int g) HYQSAT_KERNEL_INLINE {
        for (int v = 0; v < vecs; ++v)
            L[v].d = zero;
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s = rowOf(ctx.spins, i);
            const double *f = rowOf(ctx.fields, i);
            for (int v = 0; v < vecs; ++v) {
                L[v].d = _mm512_add_pd(
                    L[v].d,
                    _mm512_mul_pd(
                        _mm512_mul_pd(_mm512_loadu_pd(s + 8 * v), minus2),
                        _mm512_loadu_pd(f + 8 * v)));
            }
        }
        for (std::int32_t e = c.edge_ptr[g]; e < c.edge_ptr[g + 1];
             ++e) {
            const __m512d vw4 = _mm512_set1_pd(4.0 * w[c.edge_slot[e]]);
            const double *su = rowOf(ctx.spins, c.edge_u[e]);
            const double *sv = rowOf(ctx.spins, c.edge_v[e]);
            for (int v = 0; v < vecs; ++v) {
                L[v].d = _mm512_add_pd(
                    L[v].d,
                    _mm512_mul_pd(_mm512_mul_pd(_mm512_loadu_pd(su + 8 * v),
                                                _mm512_loadu_pd(sv + 8 * v)),
                                  vw4));
            }
        }
    };

    const auto applyGroup = [&](int g) HYQSAT_KERNEL_INLINE {
        const std::vector<int> &members =
            c.groups[static_cast<std::size_t>(g)];
        for (int i : members) {
            const double *s = rowOf(ctx.spins, i);
            for (int v = 0; v < vecs; ++v)
                L[v].t = _mm512_maskz_mul_pd(L[v].m, two,
                                             _mm512_loadu_pd(s + 8 * v));
            scatterUpdates(i);
        }
        for (int i : members)
            flipSpins(rowOf(ctx.spins, i));
    };

    for (int sweep = 0; sweep < ctx.sweeps; ++sweep) {
        if (sweepCancelled(ctx, sweep))
            break;
        const double beta = ctx.betas[sweep];
        for (int i = 0; i < n; ++i) {
            flipDeltas(i);
            if (decide(beta))
                applyFlip(i);
        }
        for (std::size_t g = 0; g < num_groups; ++g) {
            groupDeltas(static_cast<int>(g));
            if (decide(beta))
                applyGroup(static_cast<int>(g));
        }
    }

    if (ctx.greedy && !ctx.cancelled) {
        bool improved = true;
        int guard = 0;
        while (improved && guard++ < 4 * n) {
            improved = false;
            for (int i = 0; i < n; ++i) {
                flipDeltas(i);
                if (decideGreedy()) {
                    applyFlip(i);
                    improved = true;
                }
            }
            for (std::size_t g = 0; g < num_groups; ++g) {
                groupDeltas(static_cast<int>(g));
                if (decideGreedy()) {
                    applyGroup(static_cast<int>(g));
                    improved = true;
                }
            }
        }
    }

    for (int v = 0; v < vecs; ++v)
        _mm512_storeu_pd(ctx.accepted + 8 * v, L[v].acc);
    ctx.attempts += attempts;
}

} // namespace

void
runLockstepAvx512(BatchCtx &ctx)
{
    if (ctx.lanes == 8)
        runKernel<1>(ctx);
    else
        runKernel<0>(ctx);
}

} // namespace hyqsat::anneal::detail
