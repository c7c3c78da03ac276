/**
 * @file
 * AVX2 lockstep kernel. Compiled in its own translation unit with
 * -mavx2 -ffp-contract=off (see src/anneal/CMakeLists.txt) so the
 * rest of the library stays portable; the dispatcher only calls in
 * here after a runtime CPU check. No FMA intrinsics anywhere —
 * multiply and add stay separate instructions so every lane computes
 * bit-identically to runLockstepScalar.
 *
 * The zero-temperature greedy decide and all bookkeeping semantics
 * come from the shared sa_batch_kernels.h; the Metropolis decide is
 * re-implemented here with AVX2 compares and table gathers because
 * it runs once per proposal for every lane and the scalar form is
 * the single largest cost in the loop. Its decisions, draws and
 * counters are exactly those of the shared decideLanes() — the
 * bit-equality tests in tests/anneal pin the two together.
 */

#include <immintrin.h>

#include <vector>

#include "anneal/sa_batch_kernels.h"

namespace hyqsat::anneal::detail {

namespace {

/** Sign-bit vector for masked spin flips. */
inline __m256d
signBits()
{
    return _mm256_set1_pd(-0.0);
}

} // namespace

void
runLockstepAvx2(BatchCtx &ctx)
{
    const SaCompiled &c = *ctx.c;
    const int n = ctx.n;
    const int lanes = ctx.lanes;
    const int reads = ctx.reads;
    const int vecs = lanes / 4;
    const std::size_t num_groups = c.groups.size();
    const __m256d minus2 = _mm256_set1_pd(-2.0);
    const __m256d two = _mm256_set1_pd(2.0);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);

    // Real-lane masks (~0 for lanes < reads, 0 for padding), so the
    // decide loops never branch on lane index.
    std::vector<std::uint64_t> real_mask(
        static_cast<std::size_t>(lanes));
    for (int r = 0; r < lanes; ++r)
        real_mask[static_cast<std::size_t>(r)] =
            r < reads ? ~0ull : 0ull;
    const auto realVec = [&](int v) {
        return _mm256_castsi256_pd(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(real_mask.data() +
                                              4 * v)));
    };

    const auto maskVec = [&](int v) {
        return _mm256_castsi256_pd(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ctx.mask + 4 * v)));
    };

    /**
     * Metropolis decide for one proposal, all lanes: identical
     * decisions, stream consumption and counters to the shared
     * decideLanes(ctx, beta, true), with the per-lane table bracket
     * resolved by gathers and every data-dependent choice a vector
     * compare. Returns whether any lane accepted.
     */
    const auto decideMetropolis = [&](double beta) {
        ++ctx.attempts;

        __m256d up = zero;
        for (int v = 0; v < vecs; ++v) {
            const __m256d vd = _mm256_loadu_pd(ctx.delta + 4 * v);
            up = _mm256_or_pd(
                up, _mm256_and_pd(
                        _mm256_cmp_pd(vd, zero, _CMP_GT_OQ),
                        realVec(v)));
        }
        if (_mm256_movemask_pd(up) == 0) {
            // Every real lane downhill or flat: all accept, and the
            // shared stream is untouched (the consumption rule).
            for (int v = 0; v < vecs; ++v) {
                const __m256d m = realVec(v);
                _mm256_storeu_pd(
                    reinterpret_cast<double *>(ctx.mask + 4 * v), m);
                _mm256_storeu_pd(
                    ctx.accepted + 4 * v,
                    _mm256_add_pd(
                        _mm256_loadu_pd(ctx.accepted + 4 * v),
                        _mm256_and_pd(one, m)));
            }
            return true;
        }

        ctx.rng->take(ctx.uniforms, static_cast<std::size_t>(lanes));
        const double *table = acceptTable();
        const __m256d vbeta = _mm256_set1_pd(beta);
        const __m256d vstep = _mm256_set1_pd(kAcceptTableStep);
        const __m256d vtop =
            _mm256_set1_pd(static_cast<double>(kAcceptTableN));
        bool any_ambiguous = false;
        unsigned acc_bits = 0;
        for (int v = 0; v < vecs; ++v) {
            const __m256d vd = _mm256_loadu_pd(ctx.delta + 4 * v);
            const __m256d vu = _mm256_loadu_pd(ctx.uniforms + 4 * v);
            __m256d scaled = _mm256_mul_pd(
                _mm256_mul_pd(vbeta, vd), vstep);
            scaled = _mm256_max_pd(scaled, zero);
            scaled = _mm256_min_pd(scaled, vtop);
            __m128i j = _mm256_cvttpd_epi32(scaled);
            j = _mm_add_epi32(j, j); // bracket pair index
            const __m256d hi = _mm256_i32gather_pd(table, j, 8);
            const __m256d lo = _mm256_i32gather_pd(table + 1, j, 8);
            const __m256d down =
                _mm256_cmp_pd(vd, zero, _CMP_LE_OQ);
            const __m256d below_lo =
                _mm256_cmp_pd(vu, lo, _CMP_LT_OQ);
            const __m256d below_hi =
                _mm256_cmp_pd(vu, hi, _CMP_LT_OQ);
            const __m256d sure = _mm256_or_pd(down, below_lo);
            const __m256d real = realVec(v);
            const __m256d m = _mm256_and_pd(real, sure);
            _mm256_storeu_pd(
                reinterpret_cast<double *>(ctx.mask + 4 * v), m);
            _mm256_storeu_pd(
                ctx.accepted + 4 * v,
                _mm256_add_pd(_mm256_loadu_pd(ctx.accepted + 4 * v),
                              _mm256_and_pd(one, m)));
            const __m256d amb = _mm256_andnot_pd(
                sure, _mm256_and_pd(real, below_hi));
            any_ambiguous |= _mm256_movemask_pd(amb) != 0;
            acc_bits |= static_cast<unsigned>(
                _mm256_movemask_pd(m));
        }
        if (any_ambiguous) {
            // Rare: a uniform landed between the table bounds — pay
            // the exact exp(), via the shared fixup rule.
            acc_bits |= resolveAmbiguousLanes(ctx, beta) != 0;
        }
        return acc_bits != 0;
    };

    const auto flipDeltas = [&](int i) {
        const double *s =
            ctx.spins + static_cast<std::size_t>(i) * lanes;
        const double *f =
            ctx.fields + static_cast<std::size_t>(i) * lanes;
        for (int v = 0; v < vecs; ++v) {
            const __m256d vs = _mm256_loadu_pd(s + 4 * v);
            const __m256d vf = _mm256_loadu_pd(f + 4 * v);
            const __m256d vd =
                _mm256_mul_pd(_mm256_mul_pd(vs, minus2), vf);
            _mm256_storeu_pd(ctx.delta + 4 * v, vd);
        }
    };

    // The masked update term t[r] = (2 * s[r]) & mask is hoisted out
    // of the neighbor loop (w[k] * t rounds the same real number as
    // (2 * w[k]) * s — identical bits), mirroring the scalar kernel.
    const auto loadUpdateTerm = [&](const double *s) {
        for (int v = 0; v < vecs; ++v) {
            const __m256d vs = _mm256_loadu_pd(s + 4 * v);
            _mm256_storeu_pd(ctx.tmp + 4 * v,
                             _mm256_and_pd(_mm256_mul_pd(two, vs),
                                           maskVec(v)));
        }
    };

    const auto scatterUpdates = [&](int i) {
        for (std::int32_t k = c.csr.row_ptr[i];
             k < c.csr.row_ptr[i + 1]; ++k) {
            const __m256d vw = _mm256_set1_pd(ctx.w[k]);
            double *fj = ctx.fields +
                         static_cast<std::size_t>(c.csr.col[k]) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const __m256d upd = _mm256_mul_pd(
                    vw, _mm256_loadu_pd(ctx.tmp + 4 * v));
                _mm256_storeu_pd(
                    fj + 4 * v,
                    _mm256_sub_pd(_mm256_loadu_pd(fj + 4 * v), upd));
            }
        }
    };

    const auto flipSpins = [&](double *s) {
        for (int v = 0; v < vecs; ++v) {
            const __m256d vs = _mm256_loadu_pd(s + 4 * v);
            const __m256d flip = _mm256_and_pd(maskVec(v), signBits());
            _mm256_storeu_pd(s + 4 * v, _mm256_xor_pd(vs, flip));
        }
    };

    const auto applyFlip = [&](int i) {
        double *s = ctx.spins + static_cast<std::size_t>(i) * lanes;
        loadUpdateTerm(s);
        scatterUpdates(i);
        flipSpins(s);
    };

    const auto groupDeltas = [&](int g) {
        for (int v = 0; v < vecs; ++v)
            _mm256_storeu_pd(ctx.delta + 4 * v, _mm256_setzero_pd());
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            const double *f =
                ctx.fields + static_cast<std::size_t>(i) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const __m256d vs = _mm256_loadu_pd(s + 4 * v);
                const __m256d vf = _mm256_loadu_pd(f + 4 * v);
                const __m256d vd =
                    _mm256_mul_pd(_mm256_mul_pd(vs, minus2), vf);
                _mm256_storeu_pd(
                    ctx.delta + 4 * v,
                    _mm256_add_pd(_mm256_loadu_pd(ctx.delta + 4 * v),
                                  vd));
            }
        }
        for (std::int32_t e = c.edge_ptr[g]; e < c.edge_ptr[g + 1];
             ++e) {
            const __m256d vw4 =
                _mm256_set1_pd(4.0 * ctx.w[c.edge_slot[e]]);
            const double *su =
                ctx.spins +
                static_cast<std::size_t>(c.edge_u[e]) * lanes;
            const double *sv =
                ctx.spins +
                static_cast<std::size_t>(c.edge_v[e]) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const __m256d t = _mm256_mul_pd(
                    _mm256_loadu_pd(su + 4 * v),
                    _mm256_loadu_pd(sv + 4 * v));
                _mm256_storeu_pd(
                    ctx.delta + 4 * v,
                    _mm256_add_pd(_mm256_loadu_pd(ctx.delta + 4 * v),
                                  _mm256_mul_pd(t, vw4)));
            }
        }
    };

    const auto applyGroup = [&](int g) {
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            loadUpdateTerm(s);
            scatterUpdates(i);
        }
        for (int i : c.groups[static_cast<std::size_t>(g)])
            flipSpins(ctx.spins + static_cast<std::size_t>(i) * lanes);
    };

    // Pull the rows the proposal is about to touch while the decide
    // math runs: the next spin's own rows, and the current spin's
    // neighbor field rows (written on accept). Prefetches don't
    // change any value, so the bit-equality contract is untouched.
    const auto prefetchAround = [&](int i) {
        if (i + 1 < n) {
            const std::size_t next =
                static_cast<std::size_t>(i + 1) * lanes;
            _mm_prefetch(
                reinterpret_cast<const char *>(ctx.spins + next),
                _MM_HINT_T0);
            _mm_prefetch(
                reinterpret_cast<const char *>(ctx.fields + next),
                _MM_HINT_T0);
        }
    };

    for (int sweep = 0; sweep < ctx.sweeps; ++sweep) {
        const double beta = ctx.betas[sweep];
        for (int i = 0; i < n; ++i) {
            flipDeltas(i);
            prefetchAround(i);
            if (decideMetropolis(beta))
                applyFlip(i);
        }
        for (std::size_t g = 0; g < num_groups; ++g) {
            groupDeltas(static_cast<int>(g));
            if (decideMetropolis(beta))
                applyGroup(static_cast<int>(g));
        }
    }

    if (ctx.greedy) {
        bool improved = true;
        int guard = 0;
        while (improved && guard++ < 4 * n) {
            improved = false;
            for (int i = 0; i < n; ++i) {
                flipDeltas(i);
                if (decideLanes(ctx, 0.0, /*metropolis=*/false)) {
                    applyFlip(i);
                    improved = true;
                }
            }
            for (std::size_t g = 0; g < num_groups; ++g) {
                groupDeltas(static_cast<int>(g));
                if (decideLanes(ctx, 0.0, /*metropolis=*/false)) {
                    applyGroup(static_cast<int>(g));
                    improved = true;
                }
            }
        }
    }
}

} // namespace hyqsat::anneal::detail
