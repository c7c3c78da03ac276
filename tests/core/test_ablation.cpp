/**
 * @file
 * Backend strategy ablations: every feedback strategy can be
 * disabled independently without compromising soundness.
 */

#include <gtest/gtest.h>

#include "anneal/annealer.h"
#include "core/hybrid_solver.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

HybridConfig
noiseFreeConfig(std::uint64_t seed = 0xab1a7e)
{
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 2;
    cfg.seed = seed;
    return cfg;
}

/** A small instance every configuration must solve correctly. */
sat::Cnf
instance(std::uint64_t seed, int vars = 16, int clauses = 66)
{
    Rng gen(seed);
    return sat::testing::randomCnf(vars, clauses, 3, gen);
}

TEST(StrategyAblation, DisablingStrategy1StaysSoundWithoutQaSolves)
{
    Rng gen(11);
    auto cfg = noiseFreeConfig();
    cfg.backend.enable_strategy1 = false;
    for (int round = 0; round < 5; ++round) {
        const auto cnf = instance(500 + round);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;
        HybridSolver solver(cfg);
        const auto result = solver.solve(cnf);
        ASSERT_FALSE(result.status.isUndef());
        EXPECT_EQ(result.status.isTrue(), expected)
            << "round " << round;
        // With S1 off the annealer can never finish the solve.
        EXPECT_FALSE(result.solved_by_qa);
        EXPECT_EQ(result.strategy_count[1], 0u);
    }
}

TEST(StrategyAblation, DisablingStrategy2SilencesPhaseHints)
{
    auto cfg = noiseFreeConfig();
    cfg.backend.enable_strategy2 = false;
    for (int round = 0; round < 3; ++round) {
        const auto cnf = instance(600 + round);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;
        HybridSolver solver(cfg);
        const auto result = solver.solve(cnf);
        EXPECT_EQ(result.status.isTrue(), expected)
            << "round " << round;
        EXPECT_EQ(result.strategy_count[2], 0u);
    }
}

TEST(StrategyAblation, SoftHintsVariantStaysSound)
{
    auto cfg = noiseFreeConfig();
    cfg.backend.strategy2_soft_hints = true;
    for (int round = 0; round < 3; ++round) {
        const auto cnf = instance(700 + round);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;
        HybridSolver solver(cfg);
        const auto result = solver.solve(cnf);
        ASSERT_FALSE(result.status.isUndef());
        EXPECT_EQ(result.status.isTrue(), expected)
            << "round " << round;
        if (result.status.isTrue())
            EXPECT_TRUE(cnf.eval(result.model));
    }
}

TEST(StrategyAblation, DisablingStrategy4SilencesPriorityBumps)
{
    auto cfg = noiseFreeConfig();
    cfg.backend.enable_strategy4 = false;
    for (int round = 0; round < 4; ++round) {
        // Over-constrained instances exercise the high-energy branch
        // that strategy 4 normally claims.
        const auto cnf = instance(800 + round, 12, 70);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;
        HybridSolver solver(cfg);
        const auto result = solver.solve(cnf);
        EXPECT_EQ(result.status.isTrue(), expected)
            << "round " << round;
        EXPECT_EQ(result.strategy_count[4], 0u);
    }
}

TEST(StrategyAblation, AllStrategiesDisabledDegradesToPlainCdcl)
{
    auto cfg = noiseFreeConfig();
    cfg.backend.enable_strategy1 = false;
    cfg.backend.enable_strategy2 = false;
    cfg.backend.enable_strategy4 = false;
    for (int round = 0; round < 3; ++round) {
        const auto cnf = instance(900 + round);
        const auto classic =
            solveClassicCdcl(cnf, cfg.solver);
        HybridSolver solver(cfg);
        const auto result = solver.solve(cnf);
        EXPECT_EQ(result.status.isTrue(), classic.status.isTrue())
            << "round " << round;
        // Samples are still drawn and classified (strategy 3 is the
        // implicit no-op), but no feedback reaches the solver.
        EXPECT_EQ(result.strategy_count[1], 0u);
        EXPECT_EQ(result.strategy_count[2], 0u);
        EXPECT_EQ(result.strategy_count[4], 0u);
        EXPECT_EQ(result.stats.iterations, classic.stats.iterations)
            << "feedback-free warm-up must not change the search";
    }
}

} // namespace
} // namespace hyqsat::core
