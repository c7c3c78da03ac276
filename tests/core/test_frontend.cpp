#include <gtest/gtest.h>

#include "core/frontend.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

TEST(Frontend, ProducesValidEmbeddingForUnsolvedFormula)
{
    const auto g = topology::Topology::dwave2000q();
    Rng gen(1);
    const auto cnf = sat::testing::randomCnf(40, 170, 3, gen);
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));

    Frontend frontend(g, {});
    Rng rng(2);
    const auto result = frontend.run(solver, rng);
    EXPECT_FALSE(result.queue.empty());
    EXPECT_GT(result.embedded->embedded_clauses, 0);
    std::string why;
    EXPECT_TRUE(result.embedded->embedding.isValid(
        g, result.embedded->problem.edges(), &why))
        << why;
}

TEST(Frontend, EmbeddedClausesArePrefixOfQueue)
{
    const auto g = topology::Topology::dwave2000q();
    Rng gen(3);
    const auto cnf = sat::testing::randomCnf(80, 340, 3, gen);
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));
    Frontend frontend(g, {});
    Rng rng(4);
    const auto result = frontend.run(solver, rng);
    ASSERT_EQ(result.embedded_clauses.size(),
              static_cast<std::size_t>(
                  result.embedded->embedded_clauses));
    for (std::size_t i = 0; i < result.embedded_clauses.size(); ++i)
        EXPECT_EQ(result.embedded_clauses[i], result.queue[i]);
}

TEST(Frontend, CoversAllWhenFormulaIsSmall)
{
    const auto g = topology::Topology::dwave2000q();
    Rng gen(5);
    const auto cnf = sat::testing::randomCnf(15, 25, 3, gen);
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));
    Frontend frontend(g, {});
    Rng rng(6);
    const auto result = frontend.run(solver, rng);
    EXPECT_TRUE(result.covers_all_unsatisfied);
}

TEST(Frontend, DoesNotCoverAllWhenCapacityExceeded)
{
    const auto g = topology::Topology::dwave2000q();
    Rng gen(7);
    const auto cnf = sat::testing::randomCnf(200, 860, 3, gen);
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));
    Frontend frontend(g, {});
    Rng rng(8);
    const auto result = frontend.run(solver, rng);
    EXPECT_FALSE(result.covers_all_unsatisfied);
}

TEST(Frontend, EmptyResultOnSatisfiedFormula)
{
    const auto g = topology::Topology::dwave2000q();
    sat::Cnf cnf(2);
    cnf.addClause(sat::mkLit(0));
    cnf.addClause(sat::mkLit(1));
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf)); // units satisfy everything
    Frontend frontend(g, {});
    Rng rng(9);
    const auto result = frontend.run(solver, rng);
    EXPECT_TRUE(result.queue.empty());
    EXPECT_TRUE(result.embedded_clauses.empty());
}

TEST(Frontend, ReportsTimeSpent)
{
    const auto g = topology::Topology::dwave2000q();
    Rng gen(10);
    const auto cnf = sat::testing::randomCnf(60, 250, 3, gen);
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));
    Frontend frontend(g, {});
    Rng rng(11);
    const auto result = frontend.run(solver, rng);
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_LT(result.seconds, 1.0); // linear-time scheme
}

TEST(Frontend, RespectsQueueCapacityOption)
{
    const auto g = topology::Topology::dwave2000q();
    Rng gen(12);
    const auto cnf = sat::testing::randomCnf(60, 250, 3, gen);
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));
    FrontendOptions opts;
    opts.queue.capacity = 10;
    Frontend frontend(g, opts);
    Rng rng(13);
    const auto result = frontend.run(solver, rng);
    EXPECT_LE(result.queue.size(), 10u);
}

} // namespace
} // namespace hyqsat::core
