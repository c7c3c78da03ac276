#include "anneal/sa_batch.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "anneal/sa_batch_kernels.h"
#include "anneal/schedule.h"
#include "anneal/work_pool.h"

namespace hyqsat::anneal {

namespace detail {

void
fillUniformsScalar(std::uint64_t seed, std::uint64_t first, double *u,
                   double *l, std::size_t n)
{
    const BlockRng rng(seed);
    for (std::size_t k = 0; k < n; ++k)
        u[k] = rng.uniformAt(first + k);
    if (l != nullptr) {
        for (std::size_t k = 0; k < n; ++k)
            l[k] = minusLog64(u[k]);
    }
}

const double *
acceptTable()
{
    static const auto table = [] {
        const auto widen = [](double v, double toward) {
            return std::nextafter(std::nextafter(v, toward), toward);
        };
        std::array<double, 2 * (kAcceptTableN + 1)> t{};
        for (int j = 0; j <= kAcceptTableN; ++j) {
            const auto k = static_cast<std::size_t>(j);
            t[2 * k] = widen(
                std::exp(-static_cast<double>(j) / kAcceptTableStep),
                2.0);
            t[2 * k + 1] =
                j == kAcceptTableN
                    ? 0.0
                    : widen(std::exp(-static_cast<double>(j + 1) /
                                     kAcceptTableStep),
                            0.0);
        }
        return t;
    }();
    return table.data();
}

void
runLockstepScalar(BatchCtx &ctx)
{
    const SaCompiled &c = *ctx.c;
    const int n = ctx.n;
    const int lanes = ctx.lanes;
    const std::size_t num_groups = c.groups.size();

    const auto flipDeltas = [&](int i) {
        const double *s =
            ctx.spins + static_cast<std::size_t>(i) * lanes;
        const double *f =
            ctx.fields + static_cast<std::size_t>(i) * lanes;
        for (int r = 0; r < lanes; ++r)
            ctx.delta[r] = (s[r] * -2.0) * f[r];
    };

    // Hot-path detail shared with the vector kernels: the masked
    // update term t[r] = (2 * s[r]) & mask is hoisted out of the
    // neighbor loop. Multiplying by 2 is exact, so w[k] * t[r]
    // rounds the same real number as the textbook (2 * w[k]) * s[r]
    // — identical bits — while the neighbor loop sheds the per-lane
    // mask AND and, because t is dedicated scratch, the aliasing
    // reloads of s the compiler otherwise has to assume.
    double *const t = ctx.tmp;

    const auto applyFlip = [&](int i) {
        double *s = ctx.spins + static_cast<std::size_t>(i) * lanes;
        for (int r = 0; r < lanes; ++r)
            t[r] = maskBits(2.0 * s[r], ctx.mask[r]);
        for (std::int32_t k = c.csr.row_ptr[i];
             k < c.csr.row_ptr[i + 1]; ++k) {
            const double wk = ctx.w[k];
            double *fj = ctx.fields +
                         static_cast<std::size_t>(c.csr.col[k]) * lanes;
            for (int r = 0; r < lanes; ++r)
                fj[r] -= wk * t[r];
        }
        for (int r = 0; r < lanes; ++r)
            s[r] = flipSignMasked(s[r], ctx.mask[r]);
    };

    const auto groupDeltas = [&](int g) {
        for (int r = 0; r < lanes; ++r)
            ctx.delta[r] = 0.0;
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            const double *f =
                ctx.fields + static_cast<std::size_t>(i) * lanes;
            for (int r = 0; r < lanes; ++r)
                ctx.delta[r] += (s[r] * -2.0) * f[r];
        }
        for (std::int32_t e = c.edge_ptr[g]; e < c.edge_ptr[g + 1];
             ++e) {
            const double w4 = 4.0 * ctx.w[c.edge_slot[e]];
            const double *su =
                ctx.spins +
                static_cast<std::size_t>(c.edge_u[e]) * lanes;
            const double *sv =
                ctx.spins +
                static_cast<std::size_t>(c.edge_v[e]) * lanes;
            for (int r = 0; r < lanes; ++r)
                ctx.delta[r] += (su[r] * sv[r]) * w4;
        }
    };

    const auto applyGroup = [&](int g) {
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            for (int r = 0; r < lanes; ++r)
                t[r] = maskBits(2.0 * s[r], ctx.mask[r]);
            for (std::int32_t k = c.csr.row_ptr[i];
                 k < c.csr.row_ptr[i + 1]; ++k) {
                const double wk = ctx.w[k];
                double *fj =
                    ctx.fields +
                    static_cast<std::size_t>(c.csr.col[k]) * lanes;
                for (int r = 0; r < lanes; ++r)
                    fj[r] -= wk * t[r];
            }
        }
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            for (int r = 0; r < lanes; ++r)
                s[r] = flipSignMasked(s[r], ctx.mask[r]);
        }
    };

    for (int sweep = 0; sweep < ctx.sweeps; ++sweep) {
        if (sweepCancelled(ctx, sweep))
            break;
        const double beta = ctx.betas[sweep];
        for (int i = 0; i < n; ++i) {
            flipDeltas(i);
            if (decideLanes(ctx, beta, /*metropolis=*/true))
                applyFlip(i);
        }
        for (std::size_t g = 0; g < num_groups; ++g) {
            groupDeltas(static_cast<int>(g));
            if (decideLanes(ctx, beta, /*metropolis=*/true))
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

} // namespace detail

namespace {

/**
 * One lockstep group: @p reads reads advance together through one
 * instruction stream, seeded from @p base. This is the whole PR 9
 * single-group path verbatim — the parallel scheduler below only
 * decides how reads partition into groups and where each group runs.
 */
std::vector<SaResult>
runLockstepGroup(const SaCompiled &compiled, const double *h,
                 const double *w, const SaOptions &opts, int reads,
                 std::uint64_t base, simd::Isa isa)
{
    using namespace detail;

    const int n = compiled.numSpins();
    const int lanes =
        (reads + kLaneQuantum - 1) / kLaneQuantum * kLaneQuantum;
    const int sweeps = std::max(opts.sweeps, 1);
    const std::vector<double> betas =
        geometricBetaSchedule(opts.beta_start, opts.beta_end, sweeps);

    // SoA rows are `lanes` doubles; aligning the bases to a cache
    // line keeps an 8-lane row inside one line instead of straddling
    // two (std::vector only guarantees 16 bytes). Values, and hence
    // results, are unchanged — this is purely a traffic optimization.
    const std::size_t soa =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(lanes);
    const auto alignedBase = [soa](std::vector<double> &v) {
        void *p = v.data();
        std::size_t space = v.size() * sizeof(double);
        return static_cast<double *>(
            std::align(64, soa * sizeof(double), p, space));
    };
    std::vector<double> spins_buf(soa + 8);
    std::vector<double> fields_buf(soa + 8);
    double *const spins = alignedBase(spins_buf);
    double *const fields = alignedBase(fields_buf);
    // Per-lane scratch rows share one cache-aligned arena (each row
    // is touched every proposal; at lanes = 8 each is one line).
    const auto scratchRow = [lanes](std::vector<double> &v, int slot) {
        void *p = v.data();
        std::size_t space = v.size() * sizeof(double);
        return static_cast<double *>(std::align(
                   64, v.size() * sizeof(double) - 64, p, space)) +
               static_cast<std::size_t>(slot) *
                   static_cast<std::size_t>(lanes);
    };
    std::vector<double> scratch(static_cast<std::size_t>(lanes) * 3 +
                                8);
    double *const delta = scratchRow(scratch, 0);
    double *const tmp = scratchRow(scratch, 1);
    double *const accepted = scratchRow(scratch, 2);
    std::fill(accepted, accepted + lanes, 0.0);
    std::vector<std::uint64_t> exact(static_cast<std::size_t>(lanes));
    std::vector<std::uint64_t> mask_buf(
        static_cast<std::size_t>(lanes) + 8);
    void *mp = mask_buf.data();
    std::size_t mspace = mask_buf.size() * sizeof(std::uint64_t);
    std::uint64_t *const mask = static_cast<std::uint64_t *>(
        std::align(64, static_cast<std::size_t>(lanes) *
                           sizeof(std::uint64_t),
                   mp, mspace));

    // Per-lane initial spins from decorrelated counter streams
    // (padded lanes get real values too — they participate in every
    // vector op but never accept, so any defined state works).
    for (int r = 0; r < lanes; ++r) {
        const BlockRng init(base +
                            (static_cast<std::uint64_t>(r) + 1) *
                                0x9e3779b97f4a7c15ull);
        for (int i = 0; i < n; ++i) {
            spins[static_cast<std::size_t>(i) * lanes + r] =
                init.uniformAt(static_cast<std::uint64_t>(i)) < 0.5
                    ? 1.0
                    : -1.0;
        }
    }

    // Cached local fields, shared (ISA-neutral) setup code.
    for (int i = 0; i < n; ++i) {
        for (int r = 0; r < lanes; ++r) {
            double f = h[i];
            for (std::int32_t k = compiled.csr.row_ptr[i];
                 k < compiled.csr.row_ptr[i + 1]; ++k) {
                f += w[k] *
                     spins[static_cast<std::size_t>(
                               compiled.csr.col[k]) *
                               lanes +
                           r];
            }
            fields[static_cast<std::size_t>(i) * lanes + r] = f;
        }
    }

    BlockRng stream(base);
    BatchCtx ctx;
    ctx.c = &compiled;
    ctx.h = h;
    ctx.w = w;
    ctx.n = n;
    ctx.reads = reads;
    ctx.lanes = lanes;
    ctx.spins = spins;
    ctx.fields = fields;
    ctx.betas = betas.data();
    ctx.sweeps = sweeps;
    ctx.greedy = opts.greedy_finish;
    ctx.stop = opts.stop;
    ctx.rng = &stream;
    ctx.delta = delta;
    ctx.tmp = tmp;
    ctx.mask = mask;
    ctx.accepted = accepted;
    ctx.exact = exact.data();

    simd::Isa use = isa;
    // The 512-bit kernel assumes whole 8-lane vectors; a 4-lane
    // batch (reads <= 4) keeps its contractual lane count and runs
    // on the next tier down instead.
    if (use == simd::Isa::Avx512 && lanes % 8 != 0)
        use = simd::Isa::Avx2;
#if !defined(HYQSAT_HAVE_AVX512_KERNEL)
    if (use == simd::Isa::Avx512)
        use = simd::Isa::Avx2;
#endif
#if !defined(HYQSAT_HAVE_AVX2_KERNEL)
    if (use == simd::Isa::Avx2)
        use = simd::Isa::Scalar;
#endif
#if !defined(HYQSAT_HAVE_NEON_KERNEL)
    if (use == simd::Isa::Neon)
        use = simd::Isa::Scalar;
#endif
    switch (use) {
#if defined(HYQSAT_HAVE_AVX512_KERNEL)
    case simd::Isa::Avx512:
        runLockstepAvx512(ctx);
        break;
#endif
#if defined(HYQSAT_HAVE_AVX2_KERNEL)
    case simd::Isa::Avx2:
        runLockstepAvx2(ctx);
        break;
#endif
#if defined(HYQSAT_HAVE_NEON_KERNEL)
    case simd::Isa::Neon:
        runLockstepNeon(ctx);
        break;
#endif
    default:
        runLockstepScalar(ctx);
        break;
    }

    // Exact per-read energies from the final spins: the kernels do
    // not carry a running energy (accumulated deltas could drift,
    // and the O(nnz) pass per run is negligible).
    std::vector<SaResult> out(static_cast<std::size_t>(reads));
    std::vector<std::int8_t> s8(static_cast<std::size_t>(n));
    for (int r = 0; r < reads; ++r) {
        for (int i = 0; i < n; ++i) {
            s8[static_cast<std::size_t>(i)] =
                spins[static_cast<std::size_t>(i) * lanes + r] > 0.0
                    ? 1
                    : -1;
        }
        SaResult &res = out[static_cast<std::size_t>(r)];
        res.spins = s8;
        res.energy = compiled.csr.energyWith(s8.data(), h, w);
        res.stats.sweeps = static_cast<std::uint64_t>(ctx.sweeps);
        res.stats.flips_attempted = ctx.attempts;
        res.stats.flips_accepted = static_cast<std::uint64_t>(
            accepted[static_cast<std::size_t>(r)]);
        res.stats.exact_decides = exact[static_cast<std::size_t>(r)];
        res.stats.reads = 1;
        res.cancelled = ctx.cancelled;
    }
    return out;
}

} // namespace

std::vector<SaResult>
sampleLockstep(const SaCompiled &compiled, const double *h,
               const double *w, const SaOptions &opts,
               std::uint64_t base, simd::Isa isa, WorkPool *pool)
{
    const int reads = std::max(opts.num_reads, 1);
    const int num_groups = lockstepGroupCount(reads, opts.reads_groups);
    if (num_groups <= 1)
        return runLockstepGroup(compiled, h, w, opts, reads, base, isa);

    // Balanced partition (every group non-empty, sizes within one of
    // each other) — like the group seeds, a pure function of
    // (reads, num_groups). Groups write disjoint [lo, hi) slices of
    // the shared result vector, so the merge is contention-free and
    // order-independent by construction.
    std::vector<SaResult> out(static_cast<std::size_t>(reads));
    WorkPool &wp = pool ? *pool : WorkPool::shared();
    wp.runIndexed(num_groups, [&](int g) {
        const int lo = static_cast<int>(
            static_cast<std::int64_t>(g) * reads / num_groups);
        const int hi = static_cast<int>(
            static_cast<std::int64_t>(g + 1) * reads / num_groups);
        std::vector<SaResult> part =
            runLockstepGroup(compiled, h, w, opts, hi - lo,
                             lockstepGroupSeed(base, g), isa);
        for (int r = lo; r < hi; ++r)
            out[static_cast<std::size_t>(r)] =
                std::move(part[static_cast<std::size_t>(r - lo)]);
    });
    return out;
}

} // namespace hyqsat::anneal
