#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "core/hybrid_solver.h"
#include "gen/random_sat.h"
#include "portfolio/portfolio.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"
#include "topology/topology.h"
#include "util/metrics.h"

namespace hyqsat::portfolio {
namespace {

core::HybridConfig
noiseFreeConfig(std::uint64_t seed = 0x12345)
{
    core::HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 2;
    cfg.seed = seed;
    return cfg;
}

/** Exhaustively contradictory formula: all 8 sign patterns over 3
 *  variables. Unsatisfiable by construction, needs real conflicts. */
sat::Cnf
exhaustiveUnsat()
{
    sat::Cnf cnf(3);
    for (int mask = 0; mask < 8; ++mask) {
        cnf.addClause({sat::mkLit(0, mask & 1), sat::mkLit(1, mask & 2),
                       sat::mkLit(2, mask & 4)});
    }
    return cnf;
}

TEST(PortfolioSolver, OneWorkerReproducesSingleSolverBitForBit)
{
    // ISSUE 2 determinism satellite: a 1-worker portfolio with a
    // fixed seed must be indistinguishable from HybridSolver alone.
    Rng gen(21);
    for (int round = 0; round < 3; ++round) {
        const auto cnf = sat::testing::randomCnf(50, 212, 3, gen);
        const auto base = noiseFreeConfig(42 + round);

        core::HybridSolver single(base);
        const auto expect = single.solve(cnf);

        PortfolioOptions opts;
        opts.base = base;
        opts.num_workers = 1;
        PortfolioSolver portfolio(opts);
        const auto got = portfolio.solve(cnf);

        ASSERT_EQ(got.status, expect.status) << "round " << round;
        EXPECT_EQ(got.model, expect.model);
        EXPECT_EQ(got.winner, 0);
        const auto &w = got.winner_result;
        EXPECT_EQ(w.stats.decisions, expect.stats.decisions);
        EXPECT_EQ(w.stats.propagations, expect.stats.propagations);
        EXPECT_EQ(w.stats.conflicts, expect.stats.conflicts);
        EXPECT_EQ(w.stats.restarts, expect.stats.restarts);
        EXPECT_EQ(w.stats.iterations, expect.stats.iterations);
        EXPECT_EQ(w.qa_samples, expect.qa_samples);
        EXPECT_EQ(w.warmup_iterations, expect.warmup_iterations);
        EXPECT_EQ(w.strategy_count, expect.strategy_count);
    }
}

TEST(PortfolioSolver, OneWorkerIsRepeatable)
{
    Rng gen(22);
    const auto cnf = sat::testing::randomCnf(40, 170, 3, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig(7);
    opts.num_workers = 1;
    PortfolioSolver solver(opts);
    const auto a = solver.solve(cnf);
    const auto b = solver.solve(cnf);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.winner_result.stats.iterations,
              b.winner_result.stats.iterations);
}

TEST(PortfolioSolver, FourWorkersAgreeWithBruteForce)
{
    Rng gen(23);
    for (int round = 0; round < 4; ++round) {
        const auto cnf = sat::testing::randomCnf(14, 58, 3, gen);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;

        PortfolioOptions opts;
        opts.base = noiseFreeConfig(round);
        opts.num_workers = 4;
        PortfolioSolver solver(opts);
        const auto result = solver.solve(cnf);

        ASSERT_FALSE(result.status.isUndef()) << "round " << round;
        EXPECT_EQ(result.status.isTrue(), expected) << "round " << round;
        EXPECT_GE(result.winner, 0);
        EXPECT_FALSE(result.winner_label.empty());
        if (result.status.isTrue()) {
            EXPECT_TRUE(cnf.eval(result.model));
        }
        ASSERT_EQ(result.workers.size(), 4u);
        for (const auto &w : result.workers) {
            // A loser may be undecided, but nobody may contradict the
            // winner.
            if (!w.status.isUndef()) {
                EXPECT_EQ(w.status.isTrue(), expected);
            }
        }
    }
}

TEST(PortfolioSolver, FourWorkersRefuteUnsat)
{
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 4;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(exhaustiveUnsat());
    EXPECT_TRUE(result.status.isFalse());
    EXPECT_GE(result.winner, 0);
}

TEST(PortfolioSolver, SatModelVerifiedOnMediumInstance)
{
    Rng gen(24);
    const auto cnf = gen::plantedRandom3Sat(60, 240, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig(99);
    opts.num_workers = 3;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_TRUE(result.status.isTrue());
    EXPECT_TRUE(cnf.eval(result.model));
    // Cancellation latency is recorded whenever somebody wins. The
    // strict < 50 ms acceptance bar is measured by
    // bench/portfolio_scaling on an unloaded machine; here (possibly
    // under sanitizers) only a lenient sanity bound is asserted.
    EXPECT_GE(result.cancel_latency_s, 0.0);
    EXPECT_LT(result.cancel_latency_s, 5.0);
}

TEST(PortfolioSolver, LosingHybridIsCancelledMidSample)
{
    // base + cdcl on an easy instance, with samples slow enough that
    // CDCL always wins while the base worker is inside its first
    // anneal. The loser must return within a sweep or so of the stop
    // request, not after the rest of its sample.
    Rng gen(28);
    const auto cnf = gen::plantedRandom3Sat(60, 240, gen);
    core::HybridConfig base;
    base.warmup_override = 1;

    // One measured sample at a probe sweep count, scaled to ~1 s.
    constexpr int kProbeSweeps = 2000;
    base.annealer.noise.sweeps = kProbeSweeps;
    const core::HybridResult probe = core::HybridSolver(base).solve(cnf);
    ASSERT_EQ(probe.qa_submitted, 1);
    const double probe_s = std::max(probe.time.qa_host_s, 1e-6);
    const int sweeps = static_cast<int>(std::clamp(
        kProbeSweeps * 1.0 / probe_s, 1.0 * kProbeSweeps, 2e6));
    const double sample_s = probe_s * sweeps / kProbeSweeps;

    base.annealer.noise.sweeps = sweeps;
    base.warmup_override = -1;
    PortfolioOptions opts;
    opts.base = base;
    opts.num_workers = 2; // base + cdcl
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_TRUE(result.status.isTrue());
    EXPECT_EQ(result.winner_label, "cdcl");
    EXPECT_LT(result.cancel_latency_s, 0.1 * sample_s)
        << "sample_s=" << sample_s << " sweeps=" << sweeps;
}

TEST(PortfolioSolver, ConflictBudgetYieldsUndef)
{
    Rng gen(25);
    const auto cnf = gen::uniformRandom3Sat(16, 130, gen); // unsat
    ASSERT_FALSE(sat::bruteForceSolve(cnf).satisfiable);

    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.base.warmup_override = 0; // plain CDCL: budget is the limit
    opts.num_workers = 2;
    opts.conflict_budget = 1;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    EXPECT_TRUE(result.status.isUndef());
    EXPECT_EQ(result.winner, -1);
    EXPECT_FALSE(result.timed_out);
}

TEST(PortfolioSolver, ExternalStopCancelsRace)
{
    StopToken stop;
    stop.requestStop(); // tripped before the race starts

    Rng gen(26);
    const auto cnf = sat::testing::randomCnf(60, 255, 3, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 2;
    opts.external_stop = &stop;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    EXPECT_TRUE(result.status.isUndef());
    EXPECT_TRUE(result.external_stopped);
    EXPECT_FALSE(result.timed_out);
}

TEST(PortfolioSolver, ExternalStopMidRaceCancels)
{
    // The caller's token trips from another thread while both slots
    // are searching: the race token is its child, so every slot sees
    // the trip at its next cancellation point.
    Rng gen(27);
    const auto cnf = gen::uniformRandom3Sat(450, 1917, gen);
    StopToken stop;
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.base.warmup_override = 4;
    opts.num_workers = 2;
    opts.external_stop = &stop;
    PortfolioSolver solver(opts);
    std::thread tripper([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stop.requestStop();
    });
    const auto result = solver.solve(cnf);
    tripper.join();
    EXPECT_TRUE(result.status.isUndef());
    EXPECT_EQ(result.winner, -1);
    EXPECT_TRUE(result.external_stopped);
    EXPECT_FALSE(result.timed_out);
    EXPECT_LT(result.wall_s, 30.0);
}

TEST(PortfolioSolver, TimeoutEnforcedOnHardInstance)
{
    // Near-threshold instance large enough that deciding it inside
    // the budget is very unlikely; if a worker still manages to, the
    // answer must simply be sound (the timeout path is then untested
    // on this seed, which is acceptable).
    Rng gen(27);
    const auto cnf = gen::uniformRandom3Sat(450, 1917, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.base.warmup_override = 4;
    opts.num_workers = 2;
    opts.timeout_s = 0.05;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    if (result.status.isUndef()) {
        EXPECT_TRUE(result.timed_out);
        EXPECT_EQ(result.winner, -1);
    } else if (result.status.isTrue()) {
        EXPECT_TRUE(cnf.eval(result.model));
    }
    // Cooperative cancellation must keep the overrun bounded even on
    // slow sanitizer builds.
    EXPECT_LT(result.wall_s, 30.0);
}

TEST(PortfolioSolver, SharingStaysSound)
{
    // Clause sharing on, several rounds: answers must still match
    // brute force (imports are root-level and soundness-preserving).
    Rng gen(28);
    for (int round = 0; round < 3; ++round) {
        const auto cnf = sat::testing::randomCnf(40, 170, 3, gen);
        // Brute force is hopeless at 40 vars; classic CDCL is the
        // independent reference.
        const bool expected =
            core::solveClassicCdcl(cnf,
                                   sat::SolverOptions::minisatStyle())
                .status.isTrue();
        PortfolioOptions opts;
        opts.base = noiseFreeConfig(round);
        opts.num_workers = 3;
        opts.share_clauses = true;
        PortfolioSolver solver(opts);
        const auto result = solver.solve(cnf);
        ASSERT_FALSE(result.status.isUndef());
        EXPECT_EQ(result.status.isTrue(), expected) << "round " << round;
        const auto &ex = result.exchange;
        EXPECT_LE(ex.fetched, ex.published * 2);
    }
}

TEST(PortfolioSolver, DiversifyTableShape)
{
    const auto base = noiseFreeConfig(0xabcdef);
    const auto slate = PortfolioSolver::diversify(base, 5);
    ASSERT_EQ(slate.size(), 5u);

    // Five rows, in race order.
    const std::vector<std::string> labels{"base", "cdcl", "sa",
                                          "logical", "presolve"};
    for (std::size_t i = 0; i < labels.size(); ++i)
        EXPECT_EQ(slate[i].label, labels[i]) << "slot " << i;

    // Slot 0 is the base config untouched (the determinism anchor).
    EXPECT_EQ(slate[0].hybrid.seed, base.seed);
    EXPECT_EQ(slate[0].hybrid.solver.seed, base.solver.seed);
    EXPECT_EQ(slate[0].hybrid.annealer.seed, base.annealer.seed);
    EXPECT_EQ(slate[0].hybrid.sampler, base.sampler);
    EXPECT_EQ(slate[0].hybrid.num_reads, base.num_reads);
    EXPECT_EQ(slate[0].hybrid.warmup_override, base.warmup_override);
    EXPECT_EQ(slate[0].hybrid.simplify_strength,
              base.simplify_strength);

    // Slot 1 is the no-warm-up CDCL hedge.
    EXPECT_EQ(slate[1].hybrid.warmup_override, 0);
    EXPECT_EQ(slate[1].hybrid.sampler, base.sampler);

    // Slots 1 and 2 keep the seeds they had in the nine-row table
    // (the salt is the slot index), so every 1-, 2- and 3-worker
    // race is unchanged by the table's pruning.
    EXPECT_EQ(slate[1].hybrid.seed, 0x049e1b5b34c8f397ull);
    EXPECT_EQ(slate[1].hybrid.solver.seed, 0x23794f8b019c1a7aull);
    EXPECT_EQ(slate[1].hybrid.annealer.seed, 0x9524784c43566671ull);
    EXPECT_EQ(slate[2].hybrid.seed, 0x9343898ec385b595ull);
    EXPECT_EQ(slate[2].hybrid.solver.seed, 0x8f03e4ebfa39aba8ull);
    EXPECT_EQ(slate[2].hybrid.annealer.seed, 0xccb844c97e4ad0b8ull);

    // Later slots carry decorrelated seeds and cross sampler
    // backends, not just seeds.
    for (std::size_t i = 1; i < slate.size(); ++i)
        EXPECT_NE(slate[i].hybrid.seed, base.seed) << "slot " << i;
    EXPECT_EQ(slate[2].hybrid.sampler, "sa");
    EXPECT_EQ(slate[3].hybrid.sampler, "logical");
    EXPECT_EQ(slate[4].hybrid.simplify_strength,
              simplify::Strength::Full);

    // Past the table the labels cycle with a #N suffix and fresh
    // seeds.
    const auto wide = PortfolioSolver::diversify(base, 7);
    ASSERT_EQ(wide.size(), 7u);
    EXPECT_EQ(wide[5].label, "base#1");
    EXPECT_EQ(wide[6].label, "cdcl#1");
    EXPECT_NE(wide[5].hybrid.seed, wide[0].hybrid.seed);
    EXPECT_NE(wide[6].hybrid.seed, wide[1].hybrid.seed);
    EXPECT_EQ(wide[6].hybrid.warmup_override, 0);
}

TEST(PortfolioSolver, ExplicitWorkerSlateRespected)
{
    Rng gen(29);
    const auto cnf = sat::testing::randomCnf(20, 85, 3, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 4; // ignored: explicit slate wins
    WorkerConfig only;
    only.label = "just-cdcl";
    only.hybrid = noiseFreeConfig(5);
    only.hybrid.warmup_override = 0;
    opts.workers = {only};
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_EQ(result.workers.size(), 1u);
    EXPECT_EQ(result.workers[0].label, "just-cdcl");
    EXPECT_FALSE(result.status.isUndef());
}

TEST(PortfolioSolver, MetricsRegistryRecordsRaceOutcome)
{
    Rng gen(31);
    const auto cnf = sat::testing::randomCnf(30, 124, 3, gen);

    MetricsRegistry registry;
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 2;
    opts.metrics = &registry;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());

    // Portfolio-level counters land after the join.
    EXPECT_EQ(registry.counter("portfolio.races")->value(), 1u);
    EXPECT_EQ(registry.counter("portfolio.decided")->value(), 1u);
    EXPECT_EQ(registry
                  .counter("portfolio.wins." + result.winner_label)
                  ->value(),
              1u);
    EXPECT_EQ(registry.timer("portfolio.wall")->count(), 1u);

    // Per-worker registries merged: solver counters from every
    // raced worker accumulate here.
    EXPECT_GT(registry.counter("solver.decisions")->value(), 0u);
    EXPECT_GE(registry.counter("solver.decisions")->value(),
              result.winner_result.stats.decisions);
}

TEST(PortfolioSolver, MetricsTraceStreamsWorkerEvents)
{
    Rng gen(33);
    const auto cnf = sat::testing::randomCnf(20, 85, 3, gen);

    std::ostringstream trace_out;
    TraceSink sink(trace_out);
    MetricsRegistry registry;
    registry.setTrace(&sink);

    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 2;
    opts.metrics = &registry;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());

    const std::string text = trace_out.str();
    EXPECT_NE(text.find("\"event\": \"portfolio.worker_done\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\": \"portfolio.race_done\""),
              std::string::npos);
}

TEST(PortfolioSolver, OneRaceRecordsEveryRaceTimerOnce)
{
    Rng gen(34);
    const auto cnf = sat::testing::randomCnf(30, 124, 3, gen);

    MetricsRegistry registry;
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 2;
    opts.metrics = &registry;
    const auto result = PortfolioSolver(opts).solve(cnf);
    ASSERT_GE(result.winner, 0);

    for (const char *name : {"portfolio.wall", "portfolio.start_latency",
                             "portfolio.cancel_latency"})
        EXPECT_EQ(registry.timer(name)->count(), 1u) << name;
    // The last slot enters its solve inside the race.
    EXPECT_GT(registry.timer("portfolio.start_latency")->seconds(), 0.0);
    EXPECT_LE(registry.timer("portfolio.start_latency")->seconds(),
              result.wall_s);
}

TEST(PortfolioSolver, RacesReuseTheirThreads)
{
    Rng gen(35);
    const auto cnf = sat::testing::randomCnf(40, 170, 3, gen);

    std::mutex mutex;
    std::set<std::thread::id> ids;
    PortfolioOptions opts;
    opts.share_clauses = false; // keeps the slots' own root hooks
    opts.workers = PortfolioSolver::diversify(noiseFreeConfig(), 2);
    for (WorkerConfig &w : opts.workers) {
        w.hybrid.root_hook = [&](sat::Solver &) {
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        };
    }
    PortfolioSolver solver(opts);
    for (int race = 0; race < 20; ++race)
        ASSERT_FALSE(solver.solve(cnf).status.isUndef()) << race;

    // The caller's thread and one parked race thread, every race.
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 2u);
}

TEST(PortfolioSolver, NineSlotsRaceConcurrently)
{
    // Every slot waits in its first root hook until all nine are
    // inside their solve: a slot queued behind another would never
    // arrive, and the wait would run out instead.
    Rng gen(27);
    const auto cnf = gen::uniformRandom3Sat(450, 1917, gen);
    constexpr int kSlots = 9;

    std::mutex mutex;
    std::condition_variable cv;
    int inside = 0;
    int most_inside = 0;
    PortfolioOptions opts;
    opts.share_clauses = false; // keeps the slots' own root hooks
    opts.timeout_s = 2.0;
    opts.workers = PortfolioSolver::diversify(noiseFreeConfig(), kSlots);
    for (WorkerConfig &w : opts.workers) {
        w.hybrid.root_hook = [&, first = true](sat::Solver &) mutable {
            if (!first)
                return;
            first = false;
            std::unique_lock<std::mutex> lock(mutex);
            ++inside;
            most_inside = std::max(most_inside, inside);
            cv.notify_all();
            cv.wait_for(lock, std::chrono::seconds(30),
                        [&] { return inside == kSlots; });
        };
    }
    const auto result = PortfolioSolver(opts).solve(cnf);
    EXPECT_EQ(most_inside, kSlots);
    if (result.status.isTrue()) {
        EXPECT_TRUE(cnf.eval(result.model));
    }
}

TEST(PortfolioSolver, ConcurrentRacesShareOneGraph)
{
    const core::HybridConfig base = noiseFreeConfig();
    const auto graph = topology::Topology::shared(
        base.topology, base.chimera_rows, base.chimera_cols,
        base.chimera_shore);

    constexpr int kRaces = 4;
    Rng gen(36);
    std::vector<sat::Cnf> cnfs;
    for (int i = 0; i < kRaces; ++i)
        cnfs.push_back(sat::testing::randomCnf(14, 58, 3, gen));

    // Graph uids count every graph built in the process: the probes
    // bracket the races, so equal neighbours mean none was built.
    const topology::Topology before(1, 1, 1);
    std::vector<PortfolioResult> results(kRaces);
    std::vector<std::thread> threads;
    for (int i = 0; i < kRaces; ++i) {
        threads.emplace_back([&, i] {
            PortfolioOptions opts;
            opts.base = noiseFreeConfig(i);
            opts.num_workers = 3;
            results[static_cast<std::size_t>(i)] =
                PortfolioSolver(opts).solve(cnfs[static_cast<std::size_t>(i)]);
        });
    }
    for (std::thread &t : threads)
        t.join();
    const topology::Topology after(1, 1, 1);
    EXPECT_EQ(after.uid(), before.uid() + 1);
    EXPECT_EQ(topology::Topology::shared(base.topology, base.chimera_rows,
                                         base.chimera_cols,
                                         base.chimera_shore),
              graph);

    for (int i = 0; i < kRaces; ++i) {
        const PortfolioResult &r = results[static_cast<std::size_t>(i)];
        ASSERT_FALSE(r.status.isUndef()) << "race " << i;
        EXPECT_EQ(r.status.isTrue(),
                  sat::bruteForceSolve(cnfs[static_cast<std::size_t>(i)])
                      .satisfiable)
            << "race " << i;
    }
}

} // namespace
} // namespace hyqsat::portfolio
