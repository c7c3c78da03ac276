#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/frontend.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

/** Fixture: solver + frontend result for a small formula. */
struct Fixture
{
    topology::Topology graph{16, 16, 4};
    sat::Cnf cnf;
    sat::Solver solver;
    FrontendResult frontend;

    explicit Fixture(int num_vars = 8, int num_clauses = 12,
                     std::uint64_t seed = 1)
    {
        Rng gen(seed);
        cnf = sat::testing::randomCnf(num_vars, num_clauses, 3, gen);
        EXPECT_TRUE(solver.loadCnf(cnf));
        Frontend fe(graph, {});
        Rng rng(seed + 1);
        frontend = fe.run(solver, rng);
    }

    anneal::AnnealSample
    sampleWithEnergy(double clause_energy)
    {
        anneal::AnnealSample s;
        s.node_bits.assign(frontend.embedded->problem.numNodes(),
                           false);
        s.clause_energy = clause_energy;
        return s;
    }
};

TEST(Backend, Strategy1FinishesWithVerifiedModel)
{
    Fixture fx;
    ASSERT_TRUE(fx.frontend.covers_all_unsatisfied);

    // Build a genuinely satisfying sample via brute force over the
    // encoded problem's SAT variables.
    const auto &problem = fx.frontend.embedded->problem;
    anneal::AnnealSample sample;
    sample.node_bits.assign(problem.numNodes(), false);
    bool found = false;
    const int n = problem.numNodes();
    ASSERT_LE(n, 24);
    for (std::uint64_t bits = 0; bits < (1ull << n) && !found;
         ++bits) {
        for (int i = 0; i < n; ++i)
            sample.node_bits[i] = (bits >> i) & 1;
        found = problem.clauseSpaceEnergy(sample.node_bits) == 0.0;
    }
    ASSERT_TRUE(found) << "fixture formula should be satisfiable";
    sample.clause_energy = 0.0;

    Backend backend({});
    const auto outcome =
        backend.apply(fx.solver, fx.frontend, sample, fx.cnf);
    EXPECT_EQ(outcome.strategy, 1);
    ASSERT_TRUE(outcome.solved);
    EXPECT_TRUE(fx.cnf.eval(outcome.model));
}

TEST(Backend, Strategy2SetsPhasesFromSample)
{
    Fixture fx(30, 100, 3);
    auto sample = fx.sampleWithEnergy(2.0); // near-satisfiable
    // Make the sample assignments distinctive: all true.
    for (auto &&bit : sample.node_bits)
        bit = true;

    Backend backend({});
    const auto outcome =
        backend.apply(fx.solver, fx.frontend, sample, fx.cnf);
    EXPECT_EQ(outcome.strategy, 2);
    EXPECT_FALSE(outcome.solved);

    // The embedded variables' forced phases steer the next
    // decisions: solve and check the model agrees on at least the
    // unconstrained embedded variables... weaker but deterministic:
    // phases are forced, so decisions pick 'true' first.
    // Spot-check via a fresh decision:
    // (indirect verification through solver behaviour is covered by
    // Solver.SetPhaseForcesDecisionPolarity; here we just ensure no
    // crash and correct classification.)
    EXPECT_EQ(outcome.cls, bayes::SatisfactionClass::NearSatisfiable);
}

TEST(Backend, Strategy3LeavesSolverAlone)
{
    Fixture fx(30, 100, 5);
    const auto sample = fx.sampleWithEnergy(6.0); // uncertain
    Backend backend({});
    const auto outcome =
        backend.apply(fx.solver, fx.frontend, sample, fx.cnf);
    EXPECT_EQ(outcome.strategy, 3);
    EXPECT_EQ(outcome.cls, bayes::SatisfactionClass::Uncertain);
    EXPECT_FALSE(outcome.solved);
}

TEST(Backend, Strategy4OnNearUnsatisfiable)
{
    Fixture fx(30, 100, 7);
    const auto sample = fx.sampleWithEnergy(20.0);
    Backend backend({});
    const auto outcome =
        backend.apply(fx.solver, fx.frontend, sample, fx.cnf);
    EXPECT_EQ(outcome.strategy, 4);
    EXPECT_EQ(outcome.cls,
              bayes::SatisfactionClass::NearUnsatisfiable);
}

TEST(Backend, AblationSwitchesDisableStrategies)
{
    Fixture fx(30, 100, 9);

    BackendOptions no_s2;
    no_s2.enable_strategy2 = false;
    const auto near_sat = fx.sampleWithEnergy(2.0);
    const auto o2 = Backend(no_s2).apply(fx.solver, fx.frontend,
                                         near_sat, fx.cnf);
    EXPECT_EQ(o2.strategy, 3); // downgraded to "no guidance"

    BackendOptions no_s4;
    no_s4.enable_strategy4 = false;
    const auto near_unsat = fx.sampleWithEnergy(20.0);
    const auto o4 = Backend(no_s4).apply(fx.solver, fx.frontend,
                                         near_unsat, fx.cnf);
    EXPECT_EQ(o4.strategy, 3);
}

TEST(Backend, Strategy1RequiresFullCoverage)
{
    Fixture fx(200, 860, 11); // far beyond QA capacity
    ASSERT_FALSE(fx.frontend.covers_all_unsatisfied);
    const auto sample = fx.sampleWithEnergy(0.0);
    Backend backend({});
    const auto outcome =
        backend.apply(fx.solver, fx.frontend, sample, fx.cnf);
    EXPECT_FALSE(outcome.solved);
    EXPECT_EQ(outcome.strategy, 2); // falls through to hints
}

TEST(Backend, Strategy1RejectsNonVerifyingModel)
{
    Fixture fx; // covers all
    ASSERT_TRUE(fx.frontend.covers_all_unsatisfied);
    // Claim energy 0 but hand over an assignment violating clauses.
    auto sample = fx.sampleWithEnergy(0.0);
    Backend backend({});
    const auto outcome =
        backend.apply(fx.solver, fx.frontend, sample, fx.cnf);
    // Either the all-false assignment happens to satisfy (unlikely)
    // or the backend degrades to strategy 2 without solving.
    if (!outcome.solved)
        EXPECT_EQ(outcome.strategy, 2);
}

TEST(Backend, EmptyProblemIsNoop)
{
    Fixture fx;
    FrontendResult empty;
    anneal::AnnealSample sample;
    Backend backend({});
    const auto outcome =
        backend.apply(fx.solver, empty, sample, fx.cnf);
    EXPECT_EQ(outcome.strategy, 3);
    EXPECT_FALSE(outcome.solved);
}

} // namespace
} // namespace hyqsat::core
