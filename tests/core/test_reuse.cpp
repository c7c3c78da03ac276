#include <gtest/gtest.h>

#include "core/hybrid_solver.h"
#include "gen/random_sat.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

HybridConfig
noiseFreeConfig(std::uint64_t seed = 0xfeed)
{
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 2;
    cfg.seed = seed;
    return cfg;
}

/** Every counter that must match for "bit-for-bit" reuse. */
void
expectIdentical(const HybridResult &a, const HybridResult &b)
{
    ASSERT_EQ(a.status, b.status);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.stats.decisions, b.stats.decisions);
    EXPECT_EQ(a.stats.propagations, b.stats.propagations);
    EXPECT_EQ(a.stats.conflicts, b.stats.conflicts);
    EXPECT_EQ(a.stats.restarts, b.stats.restarts);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
    EXPECT_EQ(a.qa_samples, b.qa_samples);
    EXPECT_EQ(a.qa_submitted, b.qa_submitted);
    EXPECT_EQ(a.warmup_iterations, b.warmup_iterations);
    EXPECT_EQ(a.strategy_count, b.strategy_count);
    EXPECT_EQ(a.solved_by_qa, b.solved_by_qa);
}

TEST(HybridSolverReuse, SecondSolveReproducesFirst)
{
    // Regression (ISSUE 2): a second solve() on the same instance
    // must not inherit pipeline/RNG state from the first.
    Rng gen(41);
    const auto cnf = sat::testing::randomCnf(50, 212, 3, gen);
    HybridSolver solver(noiseFreeConfig());
    const auto first = solver.solve(cnf);
    const auto second = solver.solve(cnf);
    expectIdentical(first, second);
}

TEST(HybridSolverReuse, ReuseAcrossDifferentFormulas)
{
    // Interleaving another instance must not perturb the replay.
    Rng gen(42);
    const auto a = sat::testing::randomCnf(40, 170, 3, gen);
    const auto b = sat::testing::randomCnf(45, 191, 3, gen);
    HybridSolver solver(noiseFreeConfig(0xbeef));
    const auto first = solver.solve(a);
    (void)solver.solve(b);
    const auto replay = solver.solve(a);
    expectIdentical(first, replay);
}

TEST(HybridSolverReuse, BudgetedRunDoesNotPoisonNextSolve)
{
    // An aborted (budget-exhausted) run must leave no residue: the
    // second call replays the same truncated search exactly.
    Rng gen(44);
    const auto cnf = gen::uniformRandom3Sat(16, 130, gen); // unsat
    auto cfg = noiseFreeConfig();
    cfg.solver.conflict_budget = 1;
    cfg.warmup_override = 0;
    HybridSolver budgeted(cfg);
    const auto aborted = budgeted.solve(cnf);
    const auto again = budgeted.solve(cnf);
    EXPECT_TRUE(aborted.status.isUndef());
    expectIdentical(aborted, again);
}

} // namespace
} // namespace hyqsat::core
