/**
 * @file
 * Annealer hot-loop micro-benchmark on an encoded random 3-SAT Ising
 * model (the fig08-style workload the hybrid loop ships to the
 * device). Paths:
 *
 *   naive   the seed per-sample path, faithfully replayed: recompile
 *           the Ising model from the QUBO and rebuild the vector-of-
 *           vectors adjacency on EVERY sample() call (that is what
 *           the pre-rewrite annealer did), then run the frozen
 *           reference sweep loop (local field re-scanned per
 *           proposal, full energy re-scan at the end);
 *   csr     the production SaSampler: flat CSR adjacency compiled
 *           once per model, cached local fields updated
 *           incrementally on accepted flips (O(1) delta reads,
 *           running energy), and the Metropolis test a compare
 *           against the exp(-j/64) bracket table (exact exp() only
 *           for a uniform between the bounds);
 *   reads4  the production sampler with num_reads = 4: read 0 is
 *           the csr sample on the caller's stream, reads 1..3 one
 *           lockstep group, both fanned out on the shared WorkPool,
 *           best energy first;
 *   seq8    num_reads = 8 on the same production path (read 0
 *           scalar, reads 1..7 one lockstep group);
 *   batch8  8 reads as ONE lockstep group (sampleLockstep) on the
 *           caller alone: all 8 reads advance through one
 *           instruction stream over the SoA layout, uniforms come
 *           from the BlockRng bulk fill and the Metropolis accept
 *           test is a compare against each uniform's -64 ln u
 *           estimate (the bracket table on scalar), on the
 *           widest ISA the host runs;
 *   batch8_scalar  the same lockstep run pinned to the scalar
 *           fallback kernel — by contract bit-identical to batch8,
 *           timed to show what vector width alone buys;
 *   par64_t1  num_reads = 64 through the two-level group scheduler
 *           (8 lockstep groups of 8 lanes) pinned to one execution
 *           context (a zero-helper WorkPool) — the single-thread
 *           baseline the parallel rung is judged against;
 *   par64   the same 64-read run with the groups fanned across a
 *           dedicated WorkPool sized to the host (caller + up to 7
 *           helpers, capped at the group count) — the compounding
 *           claim: vector width per core times cores;
 *   embedded1  the single-read chain (SaSampler, num_reads = 1) on
 *           a REAL chained model: the frontend's first embedded
 *           queue of a graph-coloring instance on the D-Wave 2000Q
 *           graph, its qubit chains as block-move groups and one
 *           control-noise draw on the coefficients, annealed with
 *           the noisy device's schedule. This is the read the
 *           single-read workloads spend their wall clock in;
 *   embedded8  one 8-lane lockstep group (sampleLockstep) on the
 *           same model and schedule. The row repeats the embedded1
 *           time (chain_us) and reports group_vs_chain = one group's
 *           time / one chain's time; the logical rows above have no
 *           groups, which hides that block moves are a large share
 *           of a group's time. It and batch8 carry exact_share: the
 *           share of the timed runs' lane proposals whose decide the
 *           kernel's fast compare left to the exact accept rule;
 *   *_overhead  the naive/csr pair at sweeps = 1, isolating the
 *           fixed per-sample cost (model recompile + adjacency
 *           rebuild) that the rewrite hoists out of the per-call
 *           path.
 *
 * One "BENCH {json}" line is emitted per path; every row carries
 * reads_per_s (completed reads per second of wall time — the
 * throughput currency all multi-read comparisons use) and the batch8
 * row carries its sorted per-read energies so downstream checks can
 * assert best-of-N monotonicity. Before any timing the bench asserts
 * (a) csr reproduces the frozen reference bit for bit from the same
 * seed, (b) the lockstep kernel on the active ISA reproduces its
 * scalar fallback bit for bit, and (c) the group scheduler on the
 * parallel pool reproduces the single-context run bit for bit — a
 * speedup over a sampler we no longer match would be meaningless.
 *
 * Measured reality, recorded here so the bars below make sense: on
 * encoded 3-SAT with the default geometric schedule ~75% of
 * proposals are accepted, so the seed's O(deg) field re-scan per
 * proposal and the rewrite's O(deg) field update per ACCEPT nearly
 * cancel. The scalar loop is not draw-bound, though: an exact exp()
 * per uphill proposal was a large share of it, and the bracket
 * table that replaced it decides almost every proposal on a compare.
 * A single-read proposal now costs mostly its own instructions: the
 * chain keeps its spins as +-1.0 doubles and its loop state in
 * locals, so no char store forces reloads (csr and embedded1 rows).
 * On the embedded model ~40% of proposals are accepted and block
 * moves, 9% of proposals, take about a third of the chain's time:
 * a block delta is one sequential sum over a chain's members and
 * in-chain edges. The other structural wins are the fixed
 * per-sample overhead (sweeps = 1 rung) and the lockstep path,
 * which amortizes one instruction stream over 8 reads.
 *
 * Acceptance bars (full scale only): overhead rung >= 3x; full-
 * schedule csr >= 1x (regression guard, must never be slower than
 * the seed path); lockstep batch8 per-read throughput >= 3x the
 * single-read csr path (reads_scaling, single-threaded on both
 * sides, so the bar is core-count independent); parallel par64
 * throughput >= 2x the single-context par64_t1 run
 * (parallel_scaling — only enforced when the process may run on >= 4
 * CPUs, because the rung needs real cores to scale across; the count
 * is the affinity mask, so a run pinned with taskset only reports).
 *
 *   ./micro_anneal [--smoke]    (HYQSAT_BENCH_TINY=1 also works)
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "anneal/annealer.h"
#include "bench/common.h"
#include "anneal/sa_batch.h"
#include "anneal/sa_reference.h"
#include "anneal/sa_sampler.h"
#include "anneal/work_pool.h"
#include "core/frontend.h"
#include "gen/graph_coloring.h"
#include "gen/random_sat.h"
#include "qubo/encoder.h"
#include "qubo/qubo.h"
#include "sat/solver.h"
#include "util/simd.h"
#include "util/timer.h"

using namespace hyqsat;

namespace {

/** Random 3-SAT encoded to the normalized QUBO (fig08 style). */
qubo::QuboModel
encodedSatQubo(int vars, int clauses, std::uint64_t seed)
{
    Rng rng(seed);
    const sat::Cnf cnf = gen::uniformRandom3Sat(vars, clauses, rng);
    std::vector<sat::LitVec> cls;
    cls.reserve(static_cast<std::size_t>(cnf.numClauses()));
    for (int c = 0; c < cnf.numClauses(); ++c)
        cls.push_back(cnf.clause(c));
    return qubo::encodeClauses(cls).normalized;
}

/**
 * The seed annealer's per-sample path at the logical level: convert
 * the QUBO and rebuild the reference sampler's adjacency from
 * scratch, then sweep. The rewrite compiles once per model instead.
 */
anneal::SaResult
naiveSampleFresh(const qubo::QuboModel &q, const anneal::SaOptions &opts,
                 Rng &rng)
{
    const qubo::IsingModel model = qubo::quboToIsing(q);
    anneal::SaReferenceSampler sampler(model);
    return sampler.sample(opts, rng);
}

/**
 * The frontend's first embedded queue of a graph-coloring instance
 * (the benchmark suite's GC family size) on @p graph.
 */
std::shared_ptr<const embed::QueueEmbedResult>
embeddedColoringQueue(const topology::Topology &graph)
{
    Rng gen(0x6C0102ull);
    const sat::Cnf cnf = gen::flatColoringCnf(50, 120, 3, gen);
    sat::SolverOptions sopts;
    sopts.instrument_clauses = true;
    sat::Solver solver(sopts);
    solver.loadCnf(cnf);
    const core::Frontend frontend(graph, core::FrontendOptions{});
    Rng rng(0xF0E1ull);
    std::shared_ptr<const embed::QueueEmbedResult> out;
    solver.setIterationHook([&](sat::Solver &s) {
        out = frontend.run(s, rng).embedded;
        s.requestStop();
    });
    (void)solver.solve();
    return out;
}

struct PathTiming
{
    double wall_s = 0.0;
    double per_sample_us = 0.0;
    double reads_per_s = 0.0;
    double best_energy = 0.0;
};

/**
 * Lockstep lane proposals and the ones the exact accept rule settled
 * (SaStats::exact_decides), summed over runs.
 */
struct ExactShare
{
    std::uint64_t exact = 0;
    std::uint64_t proposals = 0;

    void
    add(const std::vector<anneal::SaResult> &reads)
    {
        for (const anneal::SaResult &r : reads) {
            exact += r.stats.exact_decides;
            proposals += r.stats.flips_attempted;
        }
    }

    double
    share() const
    {
        return proposals > 0 ? static_cast<double>(exact) /
                                   static_cast<double>(proposals)
                             : 0.0;
    }
};

/** Time @p reps calls of @p fn (each completing @p reads reads). */
template <typename Fn>
PathTiming
timePath(int reps, int reads, Fn &&fn)
{
    PathTiming out;
    Timer t;
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        const double e = fn(i);
        best = i == 0 ? e : std::min(best, e);
    }
    out.wall_s = t.seconds();
    out.per_sample_us = out.wall_s * 1e6 / reps;
    out.reads_per_s =
        static_cast<double>(reads) * reps / out.wall_s;
    out.best_energy = best;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = std::getenv("HYQSAT_BENCH_TINY") != nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    }

    const int vars = smoke ? 40 : 180;
    const int clauses = static_cast<int>(vars * 4.2);
    const int reps = smoke ? 20 : 200;
    const int multi_reps = smoke ? 10 : 60;
    const int overhead_reps = smoke ? 60 : 400;
    anneal::SaOptions opts;
    opts.sweeps = smoke ? 64 : 256;

    const qubo::QuboModel qubo =
        encodedSatQubo(vars, clauses, 0xF1608BE7ull);
    const qubo::IsingModel model = qubo::quboToIsing(qubo);

    std::printf("=== micro_anneal: SA per-sample cost on an encoded "
                "3-SAT model (%d vars, %d clauses -> %d spins, %d "
                "sweeps, %d samples/path) ===\n",
                vars, clauses, model.numSpins(), opts.sweeps, reps);

    anneal::SaReferenceSampler naive_sampler(model);
    anneal::SaSampler csr_sampler(model);

    // Exactness gate 1: the rewrite must still BE the reference
    // algorithm (same spins, same draw stream) before we time it.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng a(seed), b(seed);
        const anneal::SaResult want = naive_sampler.sample(opts, a);
        const anneal::SaResult got = csr_sampler.sample(opts, b);
        if (got.spins != want.spins || a.next() != b.next() ||
            std::abs(got.energy - want.energy) > 1e-9) {
            std::printf("FAIL: csr sampler diverges from the "
                        "reference on seed %llu\n",
                        static_cast<unsigned long long>(seed));
            return 1;
        }
    }

    anneal::SaOptions multi4 = opts;
    multi4.num_reads = 4;
    anneal::SaOptions multi8 = opts;
    multi8.num_reads = 8;
    const auto compiled =
        anneal::SaCompiled::build(model, /*include_zero=*/false);
    const auto runLock8 = [&](std::uint64_t base, simd::Isa isa) {
        return anneal::sampleLockstep(compiled, compiled.csr.h.data(),
                                      compiled.csr.w.data(), multi8,
                                      base, isa);
    };

    // Exactness gate 2: the lockstep kernel on the active ISA must
    // match its scalar fallback bit for bit (the batched contract).
    const simd::Isa active = simd::activeIsa();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const auto wide = runLock8(seed, active);
        const auto narrow = runLock8(seed, simd::Isa::Scalar);
        bool same = wide.size() == narrow.size();
        for (std::size_t r = 0; same && r < wide.size(); ++r)
            same = wide[r].spins == narrow[r].spins &&
                   wide[r].energy == narrow[r].energy;
        if (!same) {
            std::printf("FAIL: lockstep %s kernel diverges from the "
                        "scalar fallback on seed %llu\n",
                        simd::isaName(active),
                        static_cast<unsigned long long>(seed));
            return 1;
        }
    }

    // The embedded model: chains as groups, noisy coefficients, the
    // noisy device's schedule (no greedy finish).
    const topology::Topology emb_graph =
        topology::Topology::dwave2000q();
    const auto emb_queue = embeddedColoringQueue(emb_graph);
    if (!emb_queue || emb_queue->problem.numNodes() == 0) {
        std::printf("FAIL: the coloring instance embedded nothing\n");
        return 1;
    }
    anneal::QuantumAnnealer emb_annealer(emb_graph, {});
    const anneal::SaSampler emb_sampler = emb_annealer.programSampler(
        emb_queue->problem, emb_queue->embedding);
    const anneal::SaCompiled &emb = emb_sampler.compiled();
    const anneal::NoiseModel device = anneal::NoiseModel::dwave2000q();
    anneal::SaOptions emb_opts;
    emb_opts.sweeps = smoke ? 64 : device.sweeps;
    emb_opts.beta_end = device.beta_final;
    emb_opts.greedy_finish = false;
    anneal::SaOptions emb8_opts = emb_opts;
    emb8_opts.num_reads = 8;
    const auto runEmb8 = [&](std::uint64_t base, simd::Isa isa) {
        return anneal::sampleLockstep(emb, emb_sampler.fields(),
                                      emb_sampler.couplings(), emb8_opts,
                                      base, isa);
    };
    {
        const auto wide = runEmb8(3, active);
        const auto narrow = runEmb8(3, simd::Isa::Scalar);
        bool same = wide.size() == narrow.size();
        for (std::size_t r = 0; same && r < wide.size(); ++r)
            same = wide[r].spins == narrow[r].spins &&
                   wide[r].energy == narrow[r].energy;
        if (!same) {
            std::printf("FAIL: lockstep %s kernel diverges from the "
                        "scalar fallback on the embedded model\n",
                        simd::isaName(active));
            return 1;
        }
    }

    // Parallel rung setup: 64 reads auto-group into 8 lockstep
    // groups; the dedicated pool gives the caller up to 7 helpers
    // (one context per group) without oversubscribing small hosts.
    const unsigned cpus = bench::usableCpus();
    const int par_helpers =
        std::max(1, std::min(8, static_cast<int>(cpus)) - 1);
    anneal::SaOptions par64_opts = opts;
    par64_opts.num_reads = 64;
    const auto runPar = [&](std::uint64_t base,
                            anneal::WorkPool &pool) {
        return anneal::sampleLockstep(
            compiled, compiled.csr.h.data(), compiled.csr.w.data(),
            par64_opts, base, active, &pool);
    };
    anneal::WorkPool par_serial(0);
    anneal::WorkPool par_pool(par_helpers);

    // Exactness gate 3: the group scheduler must produce the same 64
    // reads whether the groups share one execution context or fan
    // out across the pool (the cross-thread-count contract).
    {
        const auto one = runPar(0xD15C0ull, par_serial);
        const auto many = runPar(0xD15C0ull, par_pool);
        bool same = one.size() == many.size();
        for (std::size_t r = 0; same && r < one.size(); ++r)
            same = one[r].spins == many[r].spins &&
                   one[r].energy == many[r].energy;
        if (!same) {
            std::printf("FAIL: parallel group scheduler diverges "
                        "from the single-context run\n");
            return 1;
        }
    }

    constexpr std::uint64_t kPathSeed = 0xBEBADA5Eull;
    Rng naive_rng(kPathSeed), csr_rng(kPathSeed), r4_rng(kPathSeed);
    Rng s8_rng(kPathSeed);
    const PathTiming naive = timePath(reps, 1, [&](int) {
        return naiveSampleFresh(qubo, opts, naive_rng).energy;
    });
    const PathTiming csr = timePath(reps, 1, [&](int) {
        return csr_sampler.sample(opts, csr_rng).energy;
    });
    const PathTiming reads4 = timePath(reps, 4, [&](int) {
        return csr_sampler.sample(multi4, r4_rng).energy;
    });
    const PathTiming seq8 = timePath(multi_reps, 8, [&](int) {
        return csr_sampler.sample(multi8, s8_rng).energy;
    });
    const auto lockBest = [](const std::vector<anneal::SaResult> &rs) {
        double best = rs.front().energy;
        for (const auto &r : rs)
            best = std::min(best, r.energy);
        return best;
    };
    ExactShare batch8_exact;
    const PathTiming batch8 = timePath(multi_reps, 8, [&](int i) {
        const auto reads = runLock8(kPathSeed + i, active);
        batch8_exact.add(reads);
        return lockBest(reads);
    });
    const PathTiming batch8_scalar = timePath(multi_reps, 8, [&](int i) {
        return lockBest(runLock8(kPathSeed + i, simd::Isa::Scalar));
    });

    // Embedded pair: the single-read chain, then one 8-lane group.
    const int emb_reps = smoke ? 3 : 30;
    Rng emb_rng(kPathSeed);
    const PathTiming embedded1 = timePath(emb_reps, 1, [&](int) {
        return emb_sampler.sample(emb_opts, emb_rng).energy;
    });
    ExactShare embedded8_exact;
    const PathTiming embedded8 = timePath(emb_reps, 8, [&](int i) {
        const auto reads = runEmb8(kPathSeed + i, active);
        embedded8_exact.add(reads);
        return lockBest(reads);
    });

    // Parallel rungs: identical work (same options, same per-rep
    // base seed) on one context versus the pool, so the ratio is
    // pure scheduling.
    const int par_reps = smoke ? 2 : 10;
    const PathTiming par64_t1 = timePath(par_reps, 64, [&](int i) {
        return lockBest(runPar(kPathSeed + i, par_serial));
    });
    const PathTiming par64 = timePath(par_reps, 64, [&](int i) {
        return lockBest(runPar(kPathSeed + i, par_pool));
    });

    // One representative 8-read sampleAll: its sorted per-read
    // energies go on the batch8 row so downstream checks can assert
    // best-of-N monotonicity without rerunning the bench.
    std::vector<double> read_energies;
    {
        Rng rng(kPathSeed);
        for (const auto &r : csr_sampler.sampleAll(multi8, rng))
            read_energies.push_back(r.energy);
    }

    PathTiming naive_oh, csr_oh;
    {
        anneal::SaOptions one = opts;
        one.sweeps = 1;
        Rng noh_rng(kPathSeed), coh_rng(kPathSeed);
        naive_oh = timePath(overhead_reps, 1, [&](int) {
            return naiveSampleFresh(qubo, one, noh_rng).energy;
        });
        csr_oh = timePath(overhead_reps, 1, [&](int) {
            return csr_sampler.sample(one, coh_rng).energy;
        });
    }

    const double csr_speedup = naive.per_sample_us / csr.per_sample_us;
    const double overhead_speedup =
        naive_oh.per_sample_us / csr_oh.per_sample_us;
    // reads_scaling is gated on the lockstep path: how many times the
    // single-read csr throughput one core delivers when 8 reads share
    // one instruction stream. Both sides are single-threaded, so the
    // ratio is core-count independent.
    const double reads_scaling = batch8.reads_per_s / csr.reads_per_s;
    const double lockstep_vs_seq = batch8.reads_per_s / seq8.reads_per_s;
    const double vector_speedup =
        batch8.reads_per_s / batch8_scalar.reads_per_s;
    const double parallel_scaling =
        par64.reads_per_s / par64_t1.reads_per_s;
    const double group_vs_chain =
        embedded8.per_sample_us / embedded1.per_sample_us;

    std::printf("naive           %9.2f us/sample  %9.0f reads/s "
                "(best energy %.3f)\n",
                naive.per_sample_us, naive.reads_per_s,
                naive.best_energy);
    std::printf("csr             %9.2f us/sample  %9.0f reads/s "
                "(%.2fx vs naive, bar >= 1x; best energy %.3f)\n",
                csr.per_sample_us, csr.reads_per_s, csr_speedup,
                csr.best_energy);
    std::printf("reads4          %9.2f us/sample  %9.0f reads/s "
                "(read 0 + 3 lockstep, %u cores; best energy %.3f)\n",
                reads4.per_sample_us, reads4.reads_per_s, cpus,
                reads4.best_energy);
    std::printf("seq8            %9.2f us/sample  %9.0f reads/s "
                "(read 0 + 7 lockstep; best energy %.3f)\n",
                seq8.per_sample_us, seq8.reads_per_s,
                seq8.best_energy);
    std::printf("batch8          %9.2f us/sample  %9.0f reads/s "
                "(lockstep %s: %.2fx csr per-read, bar >= 3x; "
                "%.2fx vs seq8; best energy %.3f; exact share %.5f)\n",
                batch8.per_sample_us, batch8.reads_per_s,
                simd::isaName(active), reads_scaling, lockstep_vs_seq,
                batch8.best_energy, batch8_exact.share());
    std::printf("batch8_scalar   %9.2f us/sample  %9.0f reads/s "
                "(lockstep scalar fallback; vector width buys "
                "%.2fx)\n",
                batch8_scalar.per_sample_us, batch8_scalar.reads_per_s,
                vector_speedup);
    std::printf("par64_t1        %9.2f us/sample  %9.0f reads/s "
                "(8 groups, 1 context; best energy %.3f)\n",
                par64_t1.per_sample_us, par64_t1.reads_per_s,
                par64_t1.best_energy);
    std::printf("par64           %9.2f us/sample  %9.0f reads/s "
                "(8 groups, %d contexts on %u CPUs: %.2fx "
                "single-context, bar >= 2x on >= 4 cores; best "
                "energy %.3f)\n",
                par64.per_sample_us, par64.reads_per_s,
                par_helpers + 1, cpus, parallel_scaling,
                par64.best_energy);
    std::printf("embedded1       %9.2f us/sample  %9.0f reads/s "
                "(single-read chain on %d embedded spins, %zu chains; "
                "%.2f ns/proposal)\n",
                embedded1.per_sample_us, embedded1.reads_per_s,
                emb.numSpins(), emb.groups.size(),
                embedded1.per_sample_us * 1e3 /
                    (static_cast<double>(emb_opts.sweeps) *
                     static_cast<double>(emb.numSpins() +
                                         emb.groups.size())));
    std::printf("embedded8       %9.2f us/sample  %9.0f reads/s "
                "(lockstep %s on the same model: one group costs "
                "%.2fx a chain; exact share %.5f)\n",
                embedded8.per_sample_us, embedded8.reads_per_s,
                simd::isaName(active), group_vs_chain,
                embedded8_exact.share());
    std::printf("naive_overhead  %9.2f us/sample at sweeps=1\n",
                naive_oh.per_sample_us);
    std::printf("csr_overhead    %9.2f us/sample at sweeps=1 (%.2fx "
                "vs naive, bar >= 3x: per-sample rebuild hoisted)\n",
                csr_oh.per_sample_us, overhead_speedup);

    // Execution contexts per row: the production multi-read rows use
    // the shared pool plus the caller; lockstep batch rows run one
    // group on the caller alone; par64 adds the dedicated helpers.
    const int shared_contexts =
        anneal::WorkPool::shared().numThreads() + 1;
    const struct
    {
        const char *path;
        const PathTiming *t;
        const char *isa;
        int num_reads;
        int threads;
        int sweeps;
        int row_reps;
        int spins;
        double speedup_vs_naive;
    } rows[] = {{"naive", &naive, "scalar", 1, 1, opts.sweeps, reps,
                 model.numSpins(), 1.0},
                {"csr", &csr, "scalar", 1, 1, opts.sweeps, reps,
                 model.numSpins(), csr_speedup},
                {"reads4", &reads4, simd::isaName(active), 4,
                 shared_contexts, opts.sweeps, reps, model.numSpins(),
                 naive.per_sample_us / reads4.per_sample_us},
                {"seq8", &seq8, simd::isaName(active), 8, shared_contexts,
                 opts.sweeps, multi_reps, model.numSpins(),
                 naive.per_sample_us / seq8.per_sample_us},
                {"batch8", &batch8, simd::isaName(active), 8, 1,
                 opts.sweeps, multi_reps, model.numSpins(),
                 naive.per_sample_us / batch8.per_sample_us},
                {"batch8_scalar", &batch8_scalar, "scalar", 8, 1,
                 opts.sweeps, multi_reps, model.numSpins(),
                 naive.per_sample_us / batch8_scalar.per_sample_us},
                {"par64_t1", &par64_t1, simd::isaName(active), 64, 1,
                 opts.sweeps, par_reps, model.numSpins(),
                 naive.per_sample_us * 64 / par64_t1.per_sample_us},
                {"par64", &par64, simd::isaName(active), 64,
                 par_helpers + 1, opts.sweeps, par_reps, model.numSpins(),
                 naive.per_sample_us * 64 / par64.per_sample_us},
                {"embedded1", &embedded1, "scalar", 1, 1,
                 emb_opts.sweeps, emb_reps, emb.numSpins(),
                 naive.per_sample_us / embedded1.per_sample_us},
                {"embedded8", &embedded8, simd::isaName(active), 8, 1,
                 emb_opts.sweeps, emb_reps, emb.numSpins(),
                 naive.per_sample_us / embedded8.per_sample_us},
                {"naive_overhead", &naive_oh, "scalar", 1, 1, 1,
                 overhead_reps, model.numSpins(), 1.0},
                {"csr_overhead", &csr_oh, "scalar", 1, 1, 1,
                 overhead_reps, model.numSpins(), overhead_speedup}};
    for (const auto &row : rows) {
        std::printf("BENCH {\"bench\":\"micro_anneal\","
                    "\"path\":\"%s\",\"isa\":\"%s\",\"wall_s\":%.6f,"
                    "\"per_sample_us\":%.3f,\"reads_per_s\":%.1f,"
                    "\"speedup_vs_naive\":%.3f,"
                    "\"num_reads\":%d,\"threads\":%d,"
                    "\"reads_scaling\":%.3f,"
                    "\"lockstep_vs_seq\":%.3f,"
                    "\"parallel_scaling\":%.3f,"
                    "\"overhead_speedup\":%.3f,"
                    "\"reps\":%d,\"spins\":%d,\"sweeps\":%d,"
                    "\"best_energy\":%.6f",
                    row.path, row.isa, row.t->wall_s,
                    row.t->per_sample_us, row.t->reads_per_s,
                    row.speedup_vs_naive, row.num_reads, row.threads,
                    reads_scaling, lockstep_vs_seq, parallel_scaling,
                    overhead_speedup, row.row_reps, row.spins,
                    row.sweeps, row.t->best_energy);
        if (!std::strcmp(row.path, "embedded8")) {
            std::printf(",\"chains\":%zu,\"chain_us\":%.3f,"
                        "\"group_vs_chain\":%.3f,\"exact_share\":%.6f",
                        emb.groups.size(), embedded1.per_sample_us,
                        group_vs_chain, embedded8_exact.share());
        }
        if (!std::strcmp(row.path, "batch8")) {
            std::printf(",\"exact_share\":%.6f", batch8_exact.share());
            std::printf(",\"read_energies\":[");
            for (std::size_t k = 0; k < read_energies.size(); ++k)
                std::printf("%s%.6f", k ? "," : "", read_energies[k]);
            std::printf("]");
        }
        std::printf("}\n");
    }

    // Bars apply at full scale only: smoke sizes are chosen for CI
    // latency, where timing noise dominates.
    if (!smoke && overhead_speedup < 3.0) {
        std::printf("FAIL: per-sample overhead %.2fx < 3x over the "
                    "seed rebuild path\n",
                    overhead_speedup);
        return 1;
    }
    if (!smoke && csr_speedup < 1.0) {
        std::printf("FAIL: csr %.2fx slower than the seed per-sample "
                    "path at full sweeps\n",
                    csr_speedup);
        return 1;
    }
    if (!smoke && reads_scaling < 3.0) {
        std::printf("FAIL: lockstep batch8 per-read throughput "
                    "%.2fx < 3x the single-read csr path\n",
                    reads_scaling);
        return 1;
    }
    // The compounding bar needs real cores: on < 4 usable CPUs the
    // pool cannot reach 2x by construction, so only report.
    if (!smoke && cpus >= 4 && parallel_scaling < 2.0) {
        std::printf("FAIL: parallel group scheduler %.2fx < 2x the "
                    "single-context run on %u usable CPUs\n",
                    parallel_scaling, cpus);
        return 1;
    }
    return 0;
}
