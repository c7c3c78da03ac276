/**
 * @file
 * Integration tests for the observability layer through the hybrid
 * loop: HybridConfig.metrics as the single source of truth, result
 * fields as views over it, accumulation across solves, JSON output
 * validity, and metrics neutrality (attaching a registry must not
 * perturb the search).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/hybrid_solver.h"
#include "tests/sat/helpers.h"
#include "util/metrics.h"

namespace hyqsat::core {
namespace {

HybridConfig
noiseFreeConfig(std::uint64_t seed = 0x777)
{
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 2;
    cfg.seed = seed;
    return cfg;
}

sat::Cnf
testFormula(std::uint64_t seed = 11)
{
    Rng rng(seed);
    return sat::testing::randomCnf(30, 124, 3, rng);
}

TEST(MetricsIntegration, CountersMatchSolverStats)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());

    EXPECT_EQ(registry.counter("solver.conflicts")->value(),
              result.stats.conflicts);
    EXPECT_EQ(registry.counter("solver.decisions")->value(),
              result.stats.decisions);
    EXPECT_EQ(registry.counter("solver.iterations")->value(),
              result.stats.iterations);
    EXPECT_EQ(registry.counter("solver.restarts")->value(),
              result.stats.restarts);
    EXPECT_EQ(registry.counter("solver.propagations")->value(),
              result.stats.propagations);
    EXPECT_EQ(registry.counter("pipeline.submitted")->value(),
              static_cast<std::uint64_t>(result.qa_submitted));
    EXPECT_EQ(registry.counter("backend.samples")->value(),
              static_cast<std::uint64_t>(result.qa_samples));
    EXPECT_EQ(registry.counter("hybrid.warmup_iterations")->value(),
              static_cast<std::uint64_t>(result.warmup_iterations));

    // Result time fields are views over the same registry.
    EXPECT_DOUBLE_EQ(registry.timer("backend.apply")->seconds(),
                     result.time.backend_s);
    EXPECT_DOUBLE_EQ(registry.timer("pipeline.frontend")->seconds(),
                     result.time.frontend_s);
    EXPECT_GT(registry.timer("hybrid.total")->seconds(), 0.0);
}

TEST(MetricsIntegration, RepeatedSolvesAccumulateExactly)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry once, twice;

    {
        HybridConfig cfg = noiseFreeConfig();
        cfg.metrics = &once;
        HybridSolver solver(cfg);
        solver.solve(cnf);
    }
    {
        HybridConfig cfg = noiseFreeConfig();
        cfg.metrics = &twice;
        HybridSolver a(cfg);
        a.solve(cnf);
        HybridSolver b(cfg);
        b.solve(cnf);
    }
    // Deterministic config: two solves record exactly double.
    EXPECT_EQ(twice.counter("solver.conflicts")->value(),
              2 * once.counter("solver.conflicts")->value());
    EXPECT_EQ(twice.counter("solver.decisions")->value(),
              2 * once.counter("solver.decisions")->value());
    EXPECT_EQ(twice.counter("backend.samples")->value(),
              2 * once.counter("backend.samples")->value());
    EXPECT_EQ(twice.timer("hybrid.total")->count(), 2u);
}

TEST(MetricsIntegration, AttachingMetricsDoesNotPerturbSearch)
{
    const sat::Cnf cnf = testFormula(23);

    HybridConfig plain_cfg = noiseFreeConfig();
    HybridSolver plain(plain_cfg);
    const HybridResult without = plain.solve(cnf);

    MetricsRegistry registry;
    HybridConfig metered_cfg = noiseFreeConfig();
    metered_cfg.metrics = &registry;
    HybridSolver metered(metered_cfg);
    const HybridResult with = metered.solve(cnf);

    EXPECT_EQ(without.status.isTrue(), with.status.isTrue());
    EXPECT_EQ(without.stats.conflicts, with.stats.conflicts);
    EXPECT_EQ(without.stats.decisions, with.stats.decisions);
    EXPECT_EQ(without.stats.iterations, with.stats.iterations);
    EXPECT_EQ(without.qa_samples, with.qa_samples);
}

TEST(MetricsIntegration, AnnealCountersRecordSamplingWork)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    cfg.num_reads = 2;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());
    ASSERT_GT(result.qa_samples, 0);

    // Every device sample runs SA chains: the anneal.* instruments
    // must have recorded real work through the hot loop.
    EXPECT_GT(registry.counter("anneal.sweeps")->value(), 0u);
    EXPECT_GT(registry.counter("anneal.flips.attempted")->value(), 0u);
    EXPECT_GT(registry.counter("anneal.flips.accepted")->value(), 0u);
    EXPECT_GT(registry.counter("anneal.reads")->value(), 0u);
    EXPECT_GT(registry.timer("anneal.sample")->count(), 0u);
    // num_reads = 2: at least two chains per recorded sample() call.
    EXPECT_GE(registry.counter("anneal.reads")->value(),
              2 * registry.timer("anneal.sample")->count());
}

TEST(MetricsIntegration, AnnealCountersAreReadAwareUnderLockstep)
{
    // The lockstep extra reads must keep the same accounting
    // identities as the scalar read 0: every read contributes its
    // full sweep schedule, so anneal.sweeps == anneal.reads *
    // noise.sweeps exactly (the greedy finish adds attempts, never
    // sweeps), and accepted work stays within attempted.
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    cfg.num_reads = 4;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());
    ASSERT_GT(result.qa_samples, 0);

    const std::uint64_t reads =
        registry.counter("anneal.reads")->value();
    const std::uint64_t sweeps =
        registry.counter("anneal.sweeps")->value();
    EXPECT_GE(reads, 4 * registry.timer("anneal.sample")->count());
    EXPECT_EQ(sweeps,
              reads * static_cast<std::uint64_t>(
                          cfg.annealer.noise.sweeps));
    EXPECT_GT(registry.counter("anneal.flips.accepted")->value(), 0u);
    EXPECT_LE(registry.counter("anneal.flips.accepted")->value(),
              registry.counter("anneal.flips.attempted")->value());
}

TEST(MetricsIntegration, WriteJsonContainsExactCounterValues)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);

    std::ostringstream out;
    registry.writeJson(out);
    const std::string json = out.str();

    EXPECT_NE(json.find("\"schema\": \"hyqsat.metrics/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"solver.conflicts\": " +
                        std::to_string(result.stats.conflicts)),
              std::string::npos);
    EXPECT_NE(json.find("\"solver.decisions\": " +
                        std::to_string(result.stats.decisions)),
              std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);

    int depth = 0;
    for (const char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(MetricsIntegration, ClassicCdclRecordsSolverCounters)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    const HybridResult result = solveClassicCdcl(
        cnf, sat::SolverOptions::minisatStyle(), nullptr, &registry);
    ASSERT_FALSE(result.status.isUndef());
    EXPECT_EQ(registry.counter("solver.conflicts")->value(),
              result.stats.conflicts);
    EXPECT_EQ(registry.counter("solver.decisions")->value(),
              result.stats.decisions);
    EXPECT_DOUBLE_EQ(registry.timer("hybrid.cdcl")->seconds(),
                     result.time.cdcl_s);
}

TEST(MetricsIntegration, TraceStreamsSolveEvents)
{
    const sat::Cnf cnf = testFormula();
    std::ostringstream trace_out;
    TraceSink sink(trace_out);
    MetricsRegistry registry;
    registry.setTrace(&sink);

    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);

    if (result.stats.restarts > 0) {
        EXPECT_NE(trace_out.str().find("\"event\": \"solver.restart\""),
                  std::string::npos);
    }
}

TEST(MetricsIntegration, FrontendLeafTimersNestInsideFrontend)
{
    // frontend.{queue,cache,encode,embed} are disjoint slices of each
    // Frontend::run, which pipeline.frontend times whole: no leaf may
    // exceed it, and together they must account for most of it.
    Rng rng(29);
    const sat::Cnf cnf = sat::testing::randomCnf(90, 383, 3, rng);
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.warmup_override = 64;
    cfg.metrics = &registry;
    HybridSolver solver(cfg);
    (void)solver.solve(cnf);

    ASSERT_GE(registry.counter("frontend.runs")->value(), 20u);
    const double frontend = registry.timer("pipeline.frontend")->seconds();
    ASSERT_GT(frontend, 0.0);
    double leaves = 0.0;
    for (const char *leaf : {"frontend.queue", "frontend.cache",
                             "frontend.encode", "frontend.embed"}) {
        const double s = registry.timer(leaf)->seconds();
        EXPECT_GE(s, 0.0) << leaf;
        EXPECT_LE(s, frontend) << leaf;
        leaves += s;
    }
    EXPECT_LE(leaves, frontend);
    EXPECT_GE(leaves, 0.8 * frontend);
}


TEST(MetricsIntegration, LeafTimersAddUpToTheHybridTotal)
{
    // The per-layer ledger of a depth-1 (synchronous) hybrid solve:
    // frontend, host-side device simulation, backend and CDCL are
    // disjoint slices of the solve's wall clock, so together they
    // must account for hybrid.total. A timer gap (time spent in no
    // leaf, or counted twice) shows up here. Covered: each device
    // model, multi-read samples, a solve the annealer finishes, a
    // refutation, and a formula refuted before any search.
    struct Case
    {
        const char *name;
        const char *sampler;
        int num_reads;
        sat::Cnf cnf;
    };
    Rng rng(31);
    std::vector<Case> cases;
    const auto random3Sat = [&rng](int vars, int clauses) {
        return sat::testing::randomCnf(vars, clauses, 3, rng);
    };
    cases.push_back({"qa", "qa", 1, random3Sat(90, 383)});
    cases.push_back({"logical", "logical", 1, testFormula(5)});
    cases.push_back({"sa", "sa", 1, testFormula(7)});
    cases.push_back({"qa-reads8", "qa", 8, random3Sat(60, 258)});
    cases.push_back({"unsat", "qa", 1, random3Sat(20, 180)});
    sat::Cnf root_unsat(1);
    root_unsat.addClause({sat::mkLit(0, false)});
    root_unsat.addClause({sat::mkLit(0, true)});
    cases.push_back({"root-unsat", "qa", 1, root_unsat});

    for (const Case &c : cases) {
        MetricsRegistry registry;
        HybridConfig cfg = noiseFreeConfig();
        cfg.sampler = c.sampler;
        cfg.num_reads = c.num_reads;
        cfg.warmup_override = 32;
        cfg.metrics = &registry;
        HybridSolver solver(cfg);
        const HybridResult result = solver.solve(c.cnf);
        ASSERT_FALSE(result.status.isUndef()) << c.name;

        // Every case but the root refutation runs the whole
        // pipeline, so each leaf carries real time.
        EXPECT_EQ(result.qa_samples > 0, c.name != std::string("root-unsat"))
            << c.name;
        const double total = registry.timer("hybrid.total")->seconds();
        double leaves = 0.0;
        for (const char *leaf : {"pipeline.frontend", "pipeline.host_sample",
                                 "backend.apply", "hybrid.cdcl"})
            leaves += registry.timer(leaf)->seconds();
        ASSERT_GT(total, 0.0) << c.name;
        EXPECT_NEAR(leaves, total, 0.01 * total) << c.name;
    }
}

} // namespace
} // namespace hyqsat::core
