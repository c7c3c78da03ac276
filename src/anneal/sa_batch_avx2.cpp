/**
 * @file
 * AVX2 lockstep kernel over 4-wide __m256d vectors. Compiled in its
 * own translation unit with -mavx2 -ffp-contract=off (see
 * src/anneal/CMakeLists.txt) so the rest of the library stays
 * portable; the dispatcher only calls in here after a runtime CPU
 * check. No FMA intrinsics anywhere — multiply and add stay separate
 * instructions so every lane computes bit-identically to
 * runLockstepScalar, the reference.
 *
 * Same register-resident structure as the AVX-512 kernel: one
 * proposal's dE, uniforms (read in place from the BlockRng buffer),
 * accept mask (an all-ones/zero lane vector), masked update term and
 * accept counters stay in registers; the loop body is a template
 * over the vector count, compiled for one and two vectors and once
 * for a run-time count. Decisions, uniform consumption and counters
 * are those of the shared decideLanes(), reached without a gather:
 * the refill stores each uniform's -64 ln u estimate (exponent from
 * the double's bits with the 2^52 trick, kLogPoly on the mantissa)
 * and decide compares 64 beta dE against it (kDecideMargin). The
 * bit-equality and golden tests in tests/anneal pin the two
 * together.
 */

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "anneal/sa_batch_kernels.h"

namespace hyqsat::anneal::detail {

namespace {

/** Low 64 bits of a * b per lane (AVX2 has no 64-bit mullo). */
inline __m256i
mullo64(__m256i a, __m256i b_lo, __m256i b_hi)
{
    const __m256i lo = _mm256_mul_epu32(a, b_lo);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                         _mm256_mul_epu32(a, b_hi));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/**
 * L(u) of 4 uniforms in [0, 1): the portable minusLog64(). The
 * biased exponent e = bits >> 52 ORed into the mantissa of 2^52
 * reads as 2^52 + e, so one subtraction of 2^52 + 1023 yields the
 * exponent k exactly, without a conversion instruction.
 */
inline __m256d
minusLog64(__m256d u)
{
    const __m256i bits = _mm256_castpd_si256(u);
    const __m256d k = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_srli_epi64(bits, 52),
            _mm256_set1_epi64x(0x4330000000000000ll))),
        _mm256_set1_pd(0x1.0p52 + 1023.0));
    const __m256d f = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffll)),
            _mm256_set1_epi64x(0x3ff0000000000000ll))),
        _mm256_set1_pd(1.0));
    __m256d q = _mm256_set1_pd(kLogPoly[4]);
    for (int j = 3; j >= 0; --j)
        q = _mm256_add_pd(_mm256_mul_pd(q, f), _mm256_set1_pd(kLogPoly[j]));
    const __m256d l =
        _mm256_add_pd(_mm256_mul_pd(k, _mm256_set1_pd(kMinus64Ln2)), q);
    // u = 0 stores NaN, so its lane always takes the exact rule.
    return _mm256_blendv_pd(
        l, _mm256_set1_pd(std::numeric_limits<double>::quiet_NaN()),
        _mm256_cmp_pd(u, _mm256_setzero_pd(), _CMP_EQ_OQ));
}

} // namespace

void
fillUniformsAvx2(std::uint64_t seed, std::uint64_t first, double *u,
                 double *l, std::size_t n)
{
    // The splitmix64 finalizer of BlockRng::wordAt, 4 counters per
    // vector. The 53-bit value converts exactly in two halves: each
    // half is ORed into the mantissa of a power of two (2^52 for the
    // low 32 bits, 2^84 for the high 21) and the power subtracted;
    // the sum of the two exact halves is exact.
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    constexpr std::uint64_t kM1 = 0xbf58476d1ce4e5b9ull;
    constexpr std::uint64_t kM2 = 0x94d049bb133111ebull;
    const auto splat = [](std::uint64_t x) {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    };
    const __m256i m1_lo = splat(kM1 & 0xffffffffull);
    const __m256i m1_hi = splat(kM1 >> 32);
    const __m256i m2_lo = splat(kM2 & 0xffffffffull);
    const __m256i m2_hi = splat(kM2 >> 32);
    const __m256i step = splat(4 * kGolden);
    const __m256i low32 = splat(0xffffffffull);
    const __m256i exp52 = splat(0x4330000000000000ull); // 2^52
    const __m256i exp84 = splat(0x4530000000000000ull); // 2^84
    const __m256d two52 = _mm256_castsi256_pd(exp52);
    const __m256d two84 = _mm256_castsi256_pd(exp84);
    const __m256d scale = _mm256_set1_pd(0x1.0p-53);
    const std::uint64_t c0 = seed + (first + 1) * kGolden;
    __m256i counter = _mm256_set_epi64x(
        static_cast<long long>(c0 + 3 * kGolden),
        static_cast<long long>(c0 + 2 * kGolden),
        static_cast<long long>(c0 + kGolden), static_cast<long long>(c0));
    for (std::size_t i = 0; i < n; i += 4) {
        __m256i z = counter;
        counter = _mm256_add_epi64(counter, step);
        z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), m1_lo,
                    m1_hi);
        z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), m2_lo,
                    m2_hi);
        z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
        const __m256i x = _mm256_srli_epi64(z, 11);
        const __m256d lo = _mm256_sub_pd(
            _mm256_castsi256_pd(
                _mm256_or_si256(_mm256_and_si256(x, low32), exp52)),
            two52);
        const __m256d hi = _mm256_sub_pd(
            _mm256_castsi256_pd(
                _mm256_or_si256(_mm256_srli_epi64(x, 32), exp84)),
            two84);
        const __m256d vu = _mm256_mul_pd(_mm256_add_pd(hi, lo), scale);
        const __m256d vl = minusLog64(vu);
        if (n - i >= 4) {
            _mm256_storeu_pd(u + i, vu);
            _mm256_storeu_pd(l + i, vl);
        } else {
            const __m256i keep = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(static_cast<long long>(n - i)),
                _mm256_set_epi64x(3, 2, 1, 0));
            _mm256_maskstore_pd(u + i, keep, vu);
            _mm256_maskstore_pd(l + i, keep, vl);
        }
    }
}

void
minusLog64Avx2(const double *u, double *l, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 4)
        _mm256_storeu_pd(l + i, minusLog64(_mm256_loadu_pd(u + i)));
}

namespace {

/** One 4-lane vector's share of the proposal state. */
struct Lanes4
{
    __m256d acc;  ///< accept counters (live for the whole run)
    __m256d s;    ///< the proposed spin's row (single-spin moves)
    __m256d d;    ///< dE
    __m256d t;    ///< masked update term (2 s) & accept
    __m256d real; ///< ~0 for lanes < reads
    __m256d m;    ///< accept mask, ~0 / 0 per lane
};

/**
 * Exact-exp fixup for the rare lanes (bits of @p open) of one vector
 * that the estimate compare could not settle: the shared
 * acceptOpenLane() per lane. Returns @p m with those it accepts set.
 */
__m256d
resolveExact(__m256d d, const double *u, unsigned open, double beta,
             __m256d m, std::uint64_t *exact)
{
    alignas(32) double dd[4];
    alignas(32) std::uint64_t mm[4];
    _mm256_store_pd(dd, d);
    _mm256_store_pd(reinterpret_cast<double *>(mm), m);
    const double *table = acceptTable();
    for (unsigned bits = open; bits != 0; bits &= bits - 1) {
        const int r = std::countr_zero(bits);
        if (acceptOpenLane(table, beta, dd[r], u[r], exact[r]))
            mm[r] = ~0ull;
    }
    return _mm256_load_pd(reinterpret_cast<const double *>(mm));
}

/**
 * Metropolis accept mask (~0 / 0 per lane) of one vector's @p real
 * lanes with dE @p d, uniforms @p u and their estimates @p l
 * (kDecideMargin): downhill lanes and sure accepts take it, sure
 * rejects do not, the rest (a NaN in dE or L fails every compare) go
 * to resolveExact().
 */
HYQSAT_KERNEL_INLINE inline __m256d
decideVector(__m256d d, __m256d real, double beta, const double *u,
             const double *l, std::uint64_t *exact)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d margin = _mm256_set1_pd(kDecideMargin);
    const __m256d vl = _mm256_loadu_pd(l);
    const __m256d s = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_set1_pd(beta), d), _mm256_set1_pd(64.0));
    const __m256d sure = _mm256_or_pd(
        _mm256_cmp_pd(d, zero, _CMP_LE_OQ),
        _mm256_cmp_pd(s, _mm256_sub_pd(vl, margin), _CMP_LT_OQ));
    const __m256d not_reject =
        _mm256_cmp_pd(s, _mm256_add_pd(vl, margin), _CMP_NGE_UQ);
    const int open = _mm256_movemask_pd(
        _mm256_andnot_pd(sure, _mm256_and_pd(real, not_reject)));
    const __m256d m = _mm256_and_pd(real, sure);
    if (open != 0) [[unlikely]]
        return resolveExact(d, u, static_cast<unsigned>(open), beta, m,
                            exact);
    return m;
}

} // namespace

void
decideUphillAvx2(double beta, const double *d, const double *u,
                 const double *l, std::size_t n, std::uint64_t *accept,
                 std::uint64_t *exact)
{
    const __m256d real = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (std::size_t i = 0; i < n; i += 4)
        _mm256_storeu_pd(reinterpret_cast<double *>(accept + i),
                         decideVector(_mm256_loadu_pd(d + i), real, beta,
                                      u + i, l + i, exact + i));
}

namespace {

template <int V>
void
runKernel(BatchCtx &ctx)
{
    const SaCompiled &c = *ctx.c;
    const int n = ctx.n;
    const int lanes = ctx.lanes;
    const int vecs = V > 0 ? V : lanes / 4;
    const std::size_t num_groups = c.groups.size();
    const double *const w = ctx.w;
    const std::int32_t *const row_ptr = c.csr.row_ptr.data();
    const std::int32_t *const col = c.csr.col.data();
    const __m256d minus2 = _mm256_set1_pd(-2.0);
    const __m256d two = _mm256_set1_pd(2.0);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d sign = _mm256_set1_pd(-0.0);

    LaneSet<Lanes4, V> L(vecs);
    for (int v = 0; v < vecs; ++v) {
        const int live = std::clamp(ctx.reads - 4 * v, 0, 4);
        L[v].real = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
            _mm256_set1_epi64x(live), _mm256_set_epi64x(3, 2, 1, 0)));
        L[v].acc = zero;
    }
    std::uint64_t attempts = 0;

    const auto rowOf = [lanes](double *base, int i) HYQSAT_KERNEL_INLINE {
        return base + static_cast<std::size_t>(i) * lanes;
    };

    const auto countAccepts = [&]() HYQSAT_KERNEL_INLINE {
        for (int v = 0; v < vecs; ++v)
            L[v].acc =
                _mm256_add_pd(L[v].acc, _mm256_and_pd(one, L[v].m));
    };

    /**
     * Metropolis decide over L[v].d: set L[v].m and the counters,
     * return whether any lane accepted. Uniforms are consumed iff a
     * real lane is uphill (the shared consumption rule).
     */
    const auto decide = [&](double beta) HYQSAT_KERNEL_INLINE {
        ++attempts;
        __m256d up = zero;
        for (int v = 0; v < vecs; ++v)
            up = _mm256_or_pd(
                up, _mm256_and_pd(_mm256_cmp_pd(L[v].d, zero, _CMP_GT_OQ),
                                  L[v].real));
        if (_mm256_movemask_pd(up) == 0) {
            // Every real lane downhill or flat: all accept, and the
            // shared stream is untouched.
            for (int v = 0; v < vecs; ++v)
                L[v].m = L[v].real;
            countAccepts();
            return true;
        }
        const BlockRng::Draw draw =
            ctx.rng->next(static_cast<std::size_t>(lanes),
                          [](auto... a) { fillUniformsAvx2(a...); });
        int any = 0;
        for (int v = 0; v < vecs; ++v) {
            L[v].m = decideVector(L[v].d, L[v].real, beta, draw.u + 4 * v,
                                  draw.l + 4 * v, ctx.exact + 4 * v);
            any |= _mm256_movemask_pd(L[v].m);
        }
        countAccepts();
        return any != 0;
    };

    /** Zero-temperature greedy decide: strict descent, no draws. */
    const auto decideGreedy = [&]() HYQSAT_KERNEL_INLINE {
        ++attempts;
        int any = 0;
        for (int v = 0; v < vecs; ++v) {
            L[v].m = _mm256_and_pd(
                L[v].real, _mm256_cmp_pd(L[v].d, zero, _CMP_LT_OQ));
            any |= _mm256_movemask_pd(L[v].m);
        }
        countAccepts();
        return any != 0;
    };

    const auto flipDeltas = [&](int i) HYQSAT_KERNEL_INLINE {
        const double *s = rowOf(ctx.spins, i);
        const double *f = rowOf(ctx.fields, i);
        for (int v = 0; v < vecs; ++v) {
            L[v].s = _mm256_loadu_pd(s + 4 * v);
            L[v].d = _mm256_mul_pd(_mm256_mul_pd(L[v].s, minus2),
                                   _mm256_loadu_pd(f + 4 * v));
        }
    };

    // f_j -= w_ij * t over spin i's neighbors, t = (2 s_i) & accept
    // (the ×2 is exact, so w * t rounds identically to (2w) * s; a
    // rejected lane subtracts a zero).
    const auto scatterUpdates = [&](int i) HYQSAT_KERNEL_INLINE {
        for (std::int32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
            const __m256d vw = _mm256_set1_pd(w[k]);
            double *fj = rowOf(ctx.fields, col[k]);
            for (int v = 0; v < vecs; ++v) {
                _mm256_storeu_pd(
                    fj + 4 * v,
                    _mm256_sub_pd(_mm256_loadu_pd(fj + 4 * v),
                                  _mm256_mul_pd(vw, L[v].t)));
            }
        }
    };

    const auto flipSpins = [&](double *s) HYQSAT_KERNEL_INLINE {
        for (int v = 0; v < vecs; ++v) {
            _mm256_storeu_pd(
                s + 4 * v,
                _mm256_xor_pd(_mm256_loadu_pd(s + 4 * v),
                              _mm256_and_pd(L[v].m, sign)));
        }
    };

    const auto applyFlip = [&](int i) HYQSAT_KERNEL_INLINE {
        for (int v = 0; v < vecs; ++v)
            L[v].t = _mm256_and_pd(_mm256_mul_pd(two, L[v].s), L[v].m);
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
                L[v].d = _mm256_add_pd(
                    L[v].d,
                    _mm256_mul_pd(
                        _mm256_mul_pd(_mm256_loadu_pd(s + 4 * v), minus2),
                        _mm256_loadu_pd(f + 4 * v)));
            }
        }
        for (std::int32_t e = c.edge_ptr[g]; e < c.edge_ptr[g + 1];
             ++e) {
            const __m256d vw4 = _mm256_set1_pd(4.0 * w[c.edge_slot[e]]);
            const double *su = rowOf(ctx.spins, c.edge_u[e]);
            const double *sv = rowOf(ctx.spins, c.edge_v[e]);
            for (int v = 0; v < vecs; ++v) {
                L[v].d = _mm256_add_pd(
                    L[v].d,
                    _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(su + 4 * v),
                                                _mm256_loadu_pd(sv + 4 * v)),
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
                L[v].t = _mm256_and_pd(
                    _mm256_mul_pd(two, _mm256_loadu_pd(s + 4 * v)),
                    L[v].m);
            scatterUpdates(i);
        }
        for (int i : members)
            flipSpins(rowOf(ctx.spins, i));
    };

    // Pull the next spin's rows while the current proposal's decide
    // math runs. Prefetches change no value.
    const auto prefetchNext = [&](int i) HYQSAT_KERNEL_INLINE {
        if (i + 1 < n) {
            _mm_prefetch(reinterpret_cast<const char *>(
                             rowOf(ctx.spins, i + 1)),
                         _MM_HINT_T0);
            _mm_prefetch(reinterpret_cast<const char *>(
                             rowOf(ctx.fields, i + 1)),
                         _MM_HINT_T0);
        }
    };

    for (int sweep = 0; sweep < ctx.sweeps; ++sweep) {
        if (sweepCancelled(ctx, sweep))
            break;
        const double beta = ctx.betas[sweep];
        for (int i = 0; i < n; ++i) {
            flipDeltas(i);
            prefetchNext(i);
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
        _mm256_storeu_pd(ctx.accepted + 4 * v, L[v].acc);
    ctx.attempts += attempts;
}

} // namespace

void
runLockstepAvx2(BatchCtx &ctx)
{
    switch (ctx.lanes / 4) {
    case 1:
        runKernel<1>(ctx);
        break;
    case 2:
        runKernel<2>(ctx);
        break;
    default:
        runKernel<0>(ctx);
        break;
    }
}

} // namespace hyqsat::anneal::detail
