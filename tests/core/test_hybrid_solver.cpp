#include <gtest/gtest.h>

#include "core/hybrid_solver.h"
#include "gen/random_sat.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

HybridConfig
noiseFreeConfig(std::uint64_t seed = 0x12345)
{
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 2;
    cfg.seed = seed;
    return cfg;
}

TEST(HybridSolver, AgreesWithBruteForceOnSmallInstances)
{
    Rng gen(1);
    for (int round = 0; round < 10; ++round) {
        const auto cnf = sat::testing::randomCnf(14, 58, 3, gen);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;
        HybridSolver solver(noiseFreeConfig(round));
        const auto result = solver.solve(cnf);
        ASSERT_FALSE(result.status.isUndef());
        EXPECT_EQ(result.status.isTrue(), expected)
            << "round " << round;
        if (result.status.isTrue())
            EXPECT_TRUE(cnf.eval(result.model));
    }
}

TEST(HybridSolver, AgreesWithClassicCdclOnMediumInstances)
{
    Rng gen(2);
    for (int round = 0; round < 5; ++round) {
        const auto cnf = sat::testing::randomCnf(60, 255, 3, gen);
        const auto classic =
            solveClassicCdcl(cnf, sat::SolverOptions::minisatStyle());
        HybridSolver solver(noiseFreeConfig(100 + round));
        const auto hybrid = solver.solve(cnf);
        EXPECT_EQ(hybrid.status.isTrue(), classic.status.isTrue())
            << "round " << round;
    }
}

TEST(HybridSolver, NoisyAnnealerStaysSound)
{
    Rng gen(3);
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
    cfg.annealer.noise.readout_flip_prob = 0.05;
    for (int round = 0; round < 5; ++round) {
        const auto cnf = sat::testing::randomCnf(14, 60, 3, gen);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;
        HybridSolver solver(cfg);
        const auto result = solver.solve(cnf);
        ASSERT_FALSE(result.status.isUndef());
        EXPECT_EQ(result.status.isTrue(), expected)
            << "round " << round;
    }
}

TEST(HybridSolver, WarmupIterationsBounded)
{
    Rng gen(4);
    const auto cnf = sat::testing::randomCnf(60, 255, 3, gen);
    auto cfg = noiseFreeConfig();
    cfg.warmup_override = 7;
    HybridSolver solver(cfg);
    const auto result = solver.solve(cnf);
    EXPECT_LE(result.warmup_iterations, 7);
    EXPECT_LE(result.qa_samples, 7);
}

TEST(HybridSolver, ZeroWarmupIsPlainCdcl)
{
    Rng gen(5);
    const auto cnf = sat::testing::randomCnf(50, 210, 3, gen);
    auto cfg = noiseFreeConfig();
    cfg.warmup_override = 0;
    HybridSolver solver(cfg);
    const auto result = solver.solve(cnf);
    EXPECT_EQ(result.qa_samples, 0);
    EXPECT_EQ(result.time.qa_device_s, 0.0);
    EXPECT_FALSE(result.status.isUndef());
}

TEST(HybridSolver, DeviceTimeAccountsSamples)
{
    Rng gen(6);
    const auto cnf = sat::testing::randomCnf(60, 255, 3, gen);
    auto cfg = noiseFreeConfig();
    cfg.warmup_override = 5;
    HybridSolver solver(cfg);
    const auto result = solver.solve(cnf);
    EXPECT_NEAR(result.time.qa_device_s,
                result.qa_samples * 130e-6, 1e-9);
}

TEST(HybridSolver, StrategyCountsSumToSamples)
{
    Rng gen(7);
    const auto cnf = sat::testing::randomCnf(80, 340, 3, gen);
    HybridSolver solver(noiseFreeConfig());
    const auto result = solver.solve(cnf);
    const auto total = result.strategy_count[1] +
                       result.strategy_count[2] +
                       result.strategy_count[3] +
                       result.strategy_count[4];
    EXPECT_EQ(total, static_cast<std::uint64_t>(result.qa_samples));
}

TEST(HybridSolver, SolvesByQaOnTinyFormulas)
{
    // Small satisfiable formulas fit entirely on the chip: strategy
    // 1 should fire during warm-up on most seeds.
    Rng gen(8);
    int qa_solved = 0;
    for (int round = 0; round < 5; ++round) {
        const auto cnf = gen::plantedRandom3Sat(15, 30, gen);
        HybridSolver solver(noiseFreeConfig(round));
        const auto result = solver.solve(cnf);
        EXPECT_TRUE(result.status.isTrue());
        EXPECT_TRUE(cnf.eval(result.model));
        qa_solved += result.solved_by_qa;
    }
    EXPECT_GE(qa_solved, 3);
}

TEST(HybridSolver, UnsatisfiableFormulaRefuted)
{
    Rng gen(9);
    const auto cnf =
        gen::uniformRandom3Sat(16, 130, gen); // ratio 8: unsat
    ASSERT_FALSE(sat::bruteForceSolve(cnf).satisfiable);
    HybridSolver solver(noiseFreeConfig());
    const auto result = solver.solve(cnf);
    EXPECT_TRUE(result.status.isFalse());
}

TEST(HybridSolver, TimeBreakdownIsConsistent)
{
    Rng gen(10);
    const auto cnf = sat::testing::randomCnf(80, 344, 3, gen);
    HybridSolver solver(noiseFreeConfig());
    const auto result = solver.solve(cnf);
    EXPECT_GE(result.time.frontend_s, 0.0);
    EXPECT_GE(result.time.backend_s, 0.0);
    EXPECT_GE(result.time.cdcl_s, 0.0);
    EXPECT_NEAR(result.time.endToEnd(),
                result.time.frontend_s + result.time.qa_device_s +
                    result.time.backend_s + result.time.cdcl_s,
                1e-12);
}

TEST(HybridSolver, EstimateIterationsGrowsWithSize)
{
    const auto small = HybridSolver::estimateIterations(150, 645);
    const auto large = HybridSolver::estimateIterations(250, 1065);
    EXPECT_GT(large, small);
    EXPECT_GT(small, 100u);
}

TEST(HybridSolver, TrivialUnsatAtLoadHandled)
{
    sat::Cnf cnf(1);
    cnf.addClause(sat::mkLit(0));
    cnf.addClause(sat::mkLit(0, true));
    HybridSolver solver(noiseFreeConfig());
    const auto result = solver.solve(cnf);
    EXPECT_TRUE(result.status.isFalse());
    EXPECT_EQ(result.qa_samples, 0);
}

TEST(HybridSolver, DeterministicPerSeed)
{
    Rng gen(11);
    const auto cnf = sat::testing::randomCnf(50, 212, 3, gen);
    HybridSolver a(noiseFreeConfig(42)), b(noiseFreeConfig(42));
    const auto ra = a.solve(cnf);
    const auto rb = b.solve(cnf);
    EXPECT_EQ(ra.status.isTrue(), rb.status.isTrue());
    EXPECT_EQ(ra.stats.iterations, rb.stats.iterations);
    EXPECT_EQ(ra.qa_samples, rb.qa_samples);
}

TEST(HybridSolver, RejectsNonThreeSatInput)
{
    sat::Cnf cnf(4);
    cnf.addClause({sat::mkLit(0), sat::mkLit(1), sat::mkLit(2),
                   sat::mkLit(3)});
    HybridSolver solver(noiseFreeConfig());
    EXPECT_EXIT(solver.solve(cnf), ::testing::ExitedWithCode(1), "");
}

TEST(HybridSolver, LogicalSamplingModeWorks)
{
    Rng gen(12);
    const auto cnf = sat::testing::randomCnf(14, 58, 3, gen);
    auto cfg = noiseFreeConfig();
    cfg.sampler = "logical";
    HybridSolver solver(cfg);
    const auto result = solver.solve(cnf);
    EXPECT_EQ(result.status.isTrue(),
              sat::bruteForceSolve(cnf).satisfiable);
}

} // namespace
} // namespace hyqsat::core
