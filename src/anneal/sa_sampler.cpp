#include "anneal/sa_sampler.h"

#include <algorithm>
#include <cmath>

#include "anneal/sa_batch.h"
#include "anneal/sa_batch_kernels.h"
#include "anneal/schedule.h"
#include "anneal/work_pool.h"

namespace hyqsat::anneal {

namespace {

/**
 * Width of the boundary band inside which a cached delta is
 * recomputed with the legacy summation order before the
 * accept/reject decision. Coefficients in this codebase are O(0.1)
 * to O(10) (normalized QUBOs, unit chain couplings, sigma*range
 * noise), so genuine deltas are either exactly zero — frequent, and
 * the dangerous case, since `dE <= 0` consumes no uniform draw — or
 * well outside this band; incremental-update drift is bounded far
 * below it. Recomputing inside the band costs one legacy-style
 * O(deg) scan on a vanishing fraction of proposals.
 */
constexpr double kBoundaryBand = 1e-9;

/**
 * Per-thread memo of the inverse-temperature ramp: consecutive
 * samples reuse the same schedule, so rebuild only when the options
 * change. Thread-local so pool chains never share.
 */
const std::vector<double> &
scheduleFor(const SaOptions &opts)
{
    thread_local double beta_start = -1.0;
    thread_local double beta_end = -1.0;
    thread_local int sweeps = -1;
    thread_local std::vector<double> betas;
    const int n = std::max(opts.sweeps, 1);
    if (opts.beta_start != beta_start || opts.beta_end != beta_end ||
        n != sweeps) {
        beta_start = opts.beta_start;
        beta_end = opts.beta_end;
        sweeps = n;
        betas = geometricBetaSchedule(opts.beta_start, opts.beta_end, n);
    }
    return betas;
}

} // namespace

// ----------------------------------------------------------------------
// SaCompiled
// ----------------------------------------------------------------------

SaCompiled
SaCompiled::build(const qubo::IsingModel &model, bool include_zero)
{
    SaCompiled out;
    out.csr = qubo::CsrIsing::fromModel(model, include_zero);
    out.group_of.assign(out.numSpins(), -1);
    out.run_ptr.assign(1, 0);
    out.edge_ptr.assign(1, 0);
    return out;
}

void
SaCompiled::compileGroups(const std::vector<std::vector<int>> &gs)
{
    groups = gs;
    group_of.assign(numSpins(), -1);
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (int i : groups[g])
            group_of[i] = static_cast<int>(g);

    run_ptr.assign(1, 0);
    run_begin.clear();
    run_end.clear();
    for (const std::vector<int> &members : groups) {
        for (std::size_t m = 0; m < members.size(); ++m) {
            if (m == 0 || members[m] != run_end.back()) {
                run_begin.push_back(members[m]);
                run_end.push_back(members[m]);
            }
            ++run_end.back();
        }
        run_ptr.push_back(static_cast<std::int32_t>(run_begin.size()));
    }

    edge_ptr.assign(1, 0);
    edge_u.clear();
    edge_v.clear();
    edge_slot.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (int i : groups[g]) {
            for (std::int32_t k = csr.row_ptr[i]; k < csr.row_ptr[i + 1];
                 ++k) {
                const int j = csr.col[k];
                if (j > i && group_of[j] == static_cast<int>(g)) {
                    edge_u.push_back(i);
                    edge_v.push_back(j);
                    edge_slot.push_back(k);
                }
            }
        }
        edge_ptr.push_back(static_cast<std::int32_t>(edge_u.size()));
    }
}

// ----------------------------------------------------------------------
// detail::IncrementalIsing
// ----------------------------------------------------------------------

namespace detail {

namespace {

/** f_j -= 2 w_ij s_i over spin i's row (s_i still its old value). */
inline void
pushFields(const std::int32_t *row, const std::int32_t *col,
           const double *w, double s_i, double *f, int i)
{
    for (std::int32_t k = row[i]; k < row[i + 1]; ++k)
        f[col[k]] -= 2.0 * w[k] * s_i;
}

/**
 * Cached block dE of group @p g. Flipping the block negates every
 * member's field term and its boundary couplings; in-group couplings
 * are invariant, so the naive sum of single-spin deltas double-counts
 * them with the wrong sign — the +4 w s_u s_v terms put them back.
 * (4w) s_u s_v rounds exactly as 4.0 * w * s_u * s_v: both scalings
 * are exact.
 */
inline double
blockDelta(const SaCompiled &c, const ChainEdge *edges, const double *s,
           const double *f, int g)
{
    double delta = 0.0;
    for (std::int32_t r = c.run_ptr[g]; r < c.run_ptr[g + 1]; ++r)
        for (std::int32_t i = c.run_begin[r]; i < c.run_end[r]; ++i)
            delta += -2.0 * s[i] * f[i];
    for (std::int32_t e = c.edge_ptr[g]; e < c.edge_ptr[g + 1]; ++e)
        delta += edges[e].w4 * s[edges[e].u] * s[edges[e].v];
    return delta;
}

/**
 * Flip group @p g. Neighbor fields update against the members' OLD
 * spins, so all field updates happen before any member is negated.
 */
inline void
flipBlock(const SaCompiled &c, const std::int32_t *row,
          const std::int32_t *col, const double *w, double *s, double *f,
          int g)
{
    const std::int32_t r0 = c.run_ptr[g], r1 = c.run_ptr[g + 1];
    for (std::int32_t r = r0; r < r1; ++r)
        for (std::int32_t i = c.run_begin[r]; i < c.run_end[r]; ++i)
            pushFields(row, col, w, s[i], f, i);
    for (std::int32_t r = r0; r < r1; ++r)
        for (std::int32_t i = c.run_begin[r]; i < c.run_end[r]; ++i)
            s[i] = -s[i];
}

} // namespace

void
IncrementalIsing::reset(const SaCompiled &c, const double *h,
                        const double *w,
                        const std::vector<std::int8_t> &spins)
{
    c_ = &c;
    h_ = h;
    w_ = w;
    s_.assign(spins.begin(), spins.end());
    const int n = c.numSpins();
    f_.assign(n, 0.0);

    // One pass builds both the local fields and the running energy
    // (each coupling counted once at its j > i twin, legacy order).
    double e = c.csr.offset;
    for (int i = 0; i < n; ++i) {
        double f = h_[i];
        for (std::int32_t k = c.csr.row_ptr[i]; k < c.csr.row_ptr[i + 1];
             ++k) {
            const int j = c.csr.col[k];
            f += w_[k] * s_[j];
            if (j > i)
                e += w_[k] * s_[i] * s_[j];
        }
        f_[i] = f;
        e += h_[i] * s_[i];
    }
    energy_ = e;

    edges_.resize(c.edge_u.size());
    for (std::size_t e = 0; e < edges_.size(); ++e)
        edges_[e] = {4.0 * w_[c.edge_slot[e]], c.edge_u[e], c.edge_v[e]};
}

double
IncrementalIsing::freshFlipDelta(int i) const
{
    double f = h_[i];
    for (std::int32_t k = c_->csr.row_ptr[i]; k < c_->csr.row_ptr[i + 1];
         ++k)
        f += w_[k] * s_[c_->csr.col[k]];
    return -2.0 * s_[i] * f;
}

double
IncrementalIsing::groupDelta(int g) const
{
    return blockDelta(*c_, edges_.data(), s_.data(), f_.data(), g);
}

double
IncrementalIsing::freshGroupDelta(int g) const
{
    double delta = 0.0;
    for (int i : c_->groups[g]) {
        double boundary = h_[i];
        for (std::int32_t k = c_->csr.row_ptr[i];
             k < c_->csr.row_ptr[i + 1]; ++k) {
            const int j = c_->csr.col[k];
            if (c_->group_of[j] != g)
                boundary += w_[k] * s_[j];
        }
        delta += -2.0 * s_[i] * boundary;
    }
    return delta;
}

void
IncrementalIsing::applyFlip(int i, double delta)
{
    pushFields(c_->csr.row_ptr.data(), c_->csr.col.data(), w_, s_[i],
               f_.data(), i);
    s_[i] = -s_[i];
    energy_ += delta;
}

void
IncrementalIsing::applyGroup(int g, double delta)
{
    flipBlock(*c_, c_->csr.row_ptr.data(), c_->csr.col.data(), w_,
              s_.data(), f_.data(), g);
    energy_ += delta;
}

template <bool kGreedy>
std::uint64_t
IncrementalIsing::sweep(double beta, Rng &rng)
{
    // The whole loop state lives in locals — flat arrays, the running
    // energy, the accept count and a copy of the Rng — and the only
    // stores are to double arrays, so nothing forces a reload.
    const SaCompiled &c = *c_;
    const int n = c.numSpins();
    const int num_groups = static_cast<int>(c.groups.size());
    const std::int32_t *const row = c.csr.row_ptr.data();
    const std::int32_t *const col = c.csr.col.data();
    const double *const w = w_;
    const ChainEdge *const edges = edges_.data();
    double *const s = s_.data();
    double *const f = f_.data();
    const double *const table = acceptTable();
    Rng local = rng;
    double energy = energy_;
    std::uint64_t accepted = 0;

    // The uniform draw happens exactly when dE > 0 (the pinned
    // RNG-consumption contract).
    const auto accept = [&](double delta) {
        if constexpr (kGreedy)
            return delta < 0.0;
        else
            return delta <= 0.0 ||
                   acceptUphill(table, beta * delta, local.uniform());
    };
    for (int i = 0; i < n; ++i) {
        // dE = -2 * s_i * (h_i + sum_j J_ij s_j).
        double delta = -2.0 * s[i] * f[i];
        if (std::abs(delta) < kBoundaryBand)
            delta = freshFlipDelta(i); // exactness guard
        if (accept(delta)) {
            pushFields(row, col, w, s[i], f, i);
            s[i] = -s[i];
            energy += delta;
            ++accepted;
        }
    }
    // Block moves over registered groups (qubit chains).
    for (int g = 0; g < num_groups; ++g) {
        double delta = blockDelta(c, edges, s, f, g);
        if (std::abs(delta) < kBoundaryBand)
            delta = freshGroupDelta(g);
        if (accept(delta)) {
            flipBlock(c, row, col, w, s, f, g);
            energy += delta;
            ++accepted;
        }
    }
    rng = local;
    energy_ = energy;
    return accepted;
}

std::vector<std::int8_t>
IncrementalIsing::spins() const
{
    std::vector<std::int8_t> out(s_.size());
    for (std::size_t i = 0; i < s_.size(); ++i)
        out[i] = s_[i] > 0.0 ? 1 : -1;
    return out;
}

} // namespace detail

// ----------------------------------------------------------------------
// SaSampler
// ----------------------------------------------------------------------

SaSampler::SaSampler(const qubo::IsingModel &model)
    : compiled_(std::make_shared<SaCompiled>(
          SaCompiled::build(model, /*include_zero=*/false)))
{
    h_ = compiled_->csr.h.data();
    w_ = compiled_->csr.w.data();
}

SaSampler::SaSampler(std::shared_ptr<const SaCompiled> compiled)
    : compiled_(std::move(compiled))
{
    h_ = compiled_->csr.h.data();
    w_ = compiled_->csr.w.data();
}

void
SaSampler::setGroups(const std::vector<std::vector<int>> &groups)
{
    // Copy-on-write: the compiled model may be shared (memoized next
    // to an embed-cache entry), so never mutate it in place.
    auto clone = std::make_shared<SaCompiled>(*compiled_);
    clone->compileGroups(groups);
    compiled_ = std::move(clone);
    if (!external_coeffs_) {
        h_ = compiled_->csr.h.data();
        w_ = compiled_->csr.w.data();
    }
}

void
SaSampler::setCoeffs(const double *h, const double *w)
{
    external_coeffs_ = h != nullptr;
    h_ = h ? h : compiled_->csr.h.data();
    w_ = w ? w : compiled_->csr.w.data();
}

SaResult
SaSampler::runChain(const SaOptions &opts, Rng &rng) const
{
    const SaCompiled &c = *compiled_;
    const int n = c.numSpins();

    std::vector<std::int8_t> init(n);
    for (auto &s : init)
        s = rng.chance(0.5) ? 1 : -1;

    detail::IncrementalIsing inc;
    inc.reset(c, h_, w_, init);

    SaStats stats;
    stats.reads = 1;

    const std::vector<double> &betas = scheduleFor(opts);
    stats.sweeps = betas.size();
    bool cancelled = false;
    for (std::size_t sweep = 0; sweep < betas.size(); ++sweep) {
        // Cancellation point: one relaxed load per sweep.
        if (opts.stop && opts.stop->stopRequested()) {
            stats.sweeps = sweep;
            cancelled = true;
            break;
        }
        stats.flips_accepted += inc.sweep<false>(betas[sweep], rng);
    }

    // Every pass proposes each spin and each group once.
    std::uint64_t passes = stats.sweeps;
    if (opts.greedy_finish && !cancelled) {
        std::uint64_t improved = 1;
        int guard = 0;
        while (improved > 0 && guard++ < 4 * n) {
            improved = inc.sweep<true>(0.0, rng);
            stats.flips_accepted += improved;
            ++passes;
        }
    }
    stats.flips_attempted = passes * (n + c.groups.size());

    SaResult result;
    result.energy = inc.energy();
    result.spins = inc.spins();
    result.stats = stats;
    result.cancelled = cancelled;
    return result;
}

SaResult
SaSampler::sample(const SaOptions &opts, Rng &rng) const
{
    if (opts.num_reads <= 1)
        return runChain(opts, rng);
    auto all = sampleAll(opts, rng);
    return std::move(all.front());
}

std::vector<SaResult>
SaSampler::sampleAll(const SaOptions &opts, Rng &rng) const
{
    const int reads = std::max(opts.num_reads, 1);
    std::vector<SaResult> out;
    if (reads == 1) {
        out.push_back(runChain(opts, rng));
        return out;
    }

    // Read 0 is the num_reads=1 sample on the caller's stream, so the
    // caller cannot tell how many reads ran and best-of-N is monotone
    // by construction. Reads 1..N-1 run as lockstep groups seeded from
    // the stream's NEXT output, peeked without consuming it. The
    // lockstep part is index 0 so the caller, which claims first,
    // usually drives the nested group fan-out itself.
    const std::uint64_t base = Rng(rng).next();
    SaOptions extra = opts;
    extra.num_reads = reads - 1;
    SaResult first;
    WorkPool::shared().runIndexed(2, [&](int k) {
        if (k == 0)
            out = sampleLockstep(*compiled_, h_, w_, extra, base,
                                 simd::activeIsa());
        else
            first = runChain(opts, rng);
    });
    out.insert(out.begin(), std::move(first));

    SaStats total;
    total.reads = static_cast<std::uint64_t>(reads);
    total.read_groups = static_cast<std::uint64_t>(
        lockstepGroupCount(reads - 1, opts.reads_groups));
    bool cancelled = false;
    for (const SaResult &r : out) {
        total.sweeps += r.stats.sweeps;
        total.flips_attempted += r.stats.flips_attempted;
        total.flips_accepted += r.stats.flips_accepted;
        total.exact_decides += r.stats.exact_decides;
        cancelled |= r.cancelled;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SaResult &a, const SaResult &b) {
                         return a.energy < b.energy;
                     });
    out.front().stats = total;
    out.front().cancelled = cancelled;
    return out;
}

} // namespace hyqsat::anneal
