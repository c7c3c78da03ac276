#include <gtest/gtest.h>

#include <string>

#include "sat/brute_force.h"
#include "sat/solver.h"
#include "simplify/pipeline.h"
#include "tests/sat/helpers.h"
#include "util/metrics.h"

namespace hyqsat::simplify {
namespace {

using sat::Cnf;
using sat::mkLit;

TEST(PipelineStrength, NamesRoundTrip)
{
    for (const Strength s :
         {Strength::Off, Strength::Light, Strength::Full}) {
        Strength parsed;
        ASSERT_TRUE(parseStrength(strengthName(s), parsed));
        EXPECT_EQ(parsed, s);
    }
    Strength out;
    EXPECT_FALSE(parseStrength("", out));
    EXPECT_FALSE(parseStrength("medium", out));
    EXPECT_FALSE(parseStrength("Light", out));
}

TEST(PipelineStrength, PresetsArmExpectedPasses)
{
    const Options off = Options::preset(Strength::Off);
    EXPECT_EQ(off.max_rounds, 0);

    const Options light = Options::preset(Strength::Light);
    EXPECT_TRUE(light.unit_propagation);
    EXPECT_TRUE(light.equivalent_literals);
    EXPECT_FALSE(light.elimination);
    EXPECT_FALSE(light.probing);
    EXPECT_FALSE(light.vivification);

    const Options full = Options::preset(Strength::Full);
    EXPECT_TRUE(full.elimination);
    EXPECT_TRUE(full.probing);
    EXPECT_TRUE(full.vivification);
    EXPECT_EQ(full.max_resolvent_len, 3);
}

TEST(Pipeline, OffReturnsInputVerbatim)
{
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0), mkLit(1), mkLit(2)); // subsumed, if run
    const Result r =
        Pipeline(Options::preset(Strength::Off)).run(cnf);
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_EQ(r.cnf.numClauses(), cnf.numClauses());
    EXPECT_EQ(r.stats.work(), 0);
    EXPECT_TRUE(r.reconstruction.empty());
}

TEST(Pipeline, EquivalentLiteralsCollapseBinaryCycle)
{
    // x0 -> x1 -> x2 -> x0: one SCC, two variables substituted.
    Cnf cnf(4);
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(1, true), mkLit(2));
    cnf.addClause(mkLit(2, true), mkLit(0));
    cnf.addClause(mkLit(0), mkLit(3)); // keeps the formula nontrivial
    const Result r =
        Pipeline(Options::preset(Strength::Light)).run(cnf);
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_EQ(r.stats.equivalences, 2);
    // Models of the reduced formula map back to the original.
    sat::Solver s;
    ASSERT_TRUE(s.loadCnf(r.cnf));
    ASSERT_TRUE(s.solve().isTrue());
    const auto model = r.extendModel(s.boolModel());
    EXPECT_TRUE(cnf.eval(model));
}

TEST(Pipeline, ContradictorySccIsUnsat)
{
    // x0 == ~x0 through binaries: (~x0 v x1)(~x1 v ~x0)(x0 v x1)
    // forces x1 == true, x0 both ways -> UNSAT via SCC/UP.
    Cnf cnf(2);
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(1, true), mkLit(0, true));
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(1, true), mkLit(0));
    const Result r =
        Pipeline(Options::preset(Strength::Light)).run(cnf);
    EXPECT_FALSE(r.satisfiable_possible);
    EXPECT_FALSE(sat::bruteForceSolve(cnf).satisfiable);
}

TEST(Pipeline, ProbingFindsFailedLiteral)
{
    // Assuming x0 propagates x1 and ~x1 -> x0 must be false.
    Cnf cnf(3);
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(0, true), mkLit(1, true));
    cnf.addClause(mkLit(0), mkLit(2)); // so x2 survives
    Options o = Options::preset(Strength::Light);
    o.probing = true;
    o.equivalent_literals = false; // isolate the probing pass
    o.subsumption = false;
    o.self_subsumption = false;
    const Result r = Pipeline(o).run(cnf);
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_GE(r.stats.failed_literals, 1);
    bool x0_fixed_false = false;
    for (const sat::Lit p : r.fixed)
        x0_fixed_false |= (p.var() == 0 && p.sign());
    EXPECT_TRUE(x0_fixed_false);
}

TEST(Pipeline, VivificationShortensRedundantClause)
{
    // (~x0 v x1) makes x2 redundant in (~x0 v x1 v x2): assuming
    // x0 and ~x1 falsifies the binary immediately.
    Cnf cnf(3);
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(0, true), mkLit(1), mkLit(2));
    Options o;
    o.vivification = true;
    o.subsumption = false; // subsumption would remove it outright
    o.self_subsumption = false;
    o.equivalent_literals = false;
    const Result r = Pipeline(o).run(cnf);
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_GE(r.stats.vivified + r.stats.subsumed, 1);
    for (int ci = 0; ci < r.cnf.numClauses(); ++ci)
        EXPECT_LE(r.cnf.clause(ci).size(), 2u);
    EXPECT_EQ(sat::bruteForceSolve(cnf).satisfiable,
              sat::bruteForceSolve(r.cnf).satisfiable);
}

TEST(Pipeline, EliminationRemovesPureAndBoundedVariables)
{
    // x2 occurs once per polarity; eliminating it resolves
    // (x0 v x2) with (~x2 v x1) into (x0 v x1).
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(2));
    cnf.addClause(mkLit(2, true), mkLit(1));
    Options o;
    o.elimination = true;
    o.equivalent_literals = false;
    const Result r = Pipeline(o).run(cnf);
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_GE(r.stats.eliminated, 1);
    // Whatever the reduced formula, reconstruction must recover a
    // model of the original.
    sat::Solver s;
    if (r.cnf.numClauses() > 0) {
        ASSERT_TRUE(s.loadCnf(r.cnf));
    }
    std::vector<bool> model(
        static_cast<std::size_t>(r.cnf.numVars()), false);
    if (r.cnf.numClauses() > 0 && s.solve().isTrue())
        model = s.boolModel();
    EXPECT_TRUE(cnf.eval(r.extendModel(model)));
}

TEST(Pipeline, FullPreservesThreeSatShape)
{
    Rng rng(21);
    for (int round = 0; round < 8; ++round) {
        const Cnf cnf = sat::testing::randomCnf(20, 85, 3, rng);
        const Result r =
            Pipeline(Options::preset(Strength::Full)).run(cnf);
        if (!r.satisfiable_possible)
            continue;
        EXPECT_TRUE(r.cnf.isThreeSat()) << "round " << round;
    }
}

TEST(Pipeline, PublishesMetrics)
{
    Cnf cnf(3);
    cnf.addClause(mkLit(0));
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(1), mkLit(2));
    cnf.addClause(mkLit(1), mkLit(2), mkLit(0, true)); // subsumed
    MetricsRegistry registry;
    Pipeline(Options::preset(Strength::Light), &registry).run(cnf);
    EXPECT_EQ(registry.counter("simplify.runs")->value(), 1u);
    EXPECT_GE(registry.counter("simplify.units")->value(), 2u);
    EXPECT_GE(registry.counter("simplify.clauses_removed")->value(),
              1u);
    EXPECT_GT(registry.timer("simplify.time")->count(), 0u);
}

TEST(Pipeline, UnsatFormulaEmitsEmptyClause)
{
    Cnf cnf(2);
    cnf.addClause(mkLit(0));
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(1, true));
    const Result r =
        Pipeline(Options::preset(Strength::Light)).run(cnf);
    EXPECT_FALSE(r.satisfiable_possible);
    ASSERT_EQ(r.cnf.numClauses(), 1);
    EXPECT_TRUE(r.cnf.clause(0).empty());
}

/**
 * The Simplify suite runs only the equivalence-preserving passes
 * (units, subsumption, self-subsumption): the formula keeps its
 * variables and the fixed units alone extend a model.
 */
Options
equivalencePreserving()
{
    Options o;
    o.equivalent_literals = false;
    return o;
}

TEST(Simplify, EmptyFormulaUnchanged)
{
    const Result r = Pipeline(equivalencePreserving()).run(Cnf(3));
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_EQ(r.cnf.numClauses(), 0);
    EXPECT_TRUE(r.fixed.empty());
}

TEST(Simplify, UnitPropagationFixesChain)
{
    // x0; ~x0 v x1; ~x1 v x2: all three become fixed units.
    Cnf cnf(3);
    cnf.addClause(mkLit(0));
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(1, true), mkLit(2));
    const Result r = Pipeline(equivalencePreserving()).run(cnf);
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_EQ(r.stats.units, 3);
    EXPECT_EQ(r.cnf.numClauses(), 0);
    EXPECT_TRUE(cnf.eval(r.extendModel(std::vector<bool>(3, false))));
}

TEST(Simplify, TautologiesDropped)
{
    Cnf cnf(2);
    cnf.addClause(mkLit(0), mkLit(0, true));
    cnf.addClause(mkLit(0), mkLit(1));
    const Result r = Pipeline(equivalencePreserving()).run(cnf);
    EXPECT_EQ(r.stats.tautologies, 1);
    EXPECT_EQ(r.cnf.numClauses(), 1);
}

TEST(Simplify, SubsumptionRemovesSuperset)
{
    // (x0 v x1) subsumes (x0 v x1 v x2).
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0), mkLit(1), mkLit(2));
    const Result r = Pipeline(equivalencePreserving()).run(cnf);
    EXPECT_EQ(r.stats.subsumed, 1);
    ASSERT_EQ(r.cnf.numClauses(), 1);
    EXPECT_EQ(r.cnf.clause(0).size(), 2u);
}

TEST(Simplify, OptionsDisablePasses)
{
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0), mkLit(1), mkLit(2));
    Options o = equivalencePreserving();
    o.subsumption = false;
    o.self_subsumption = false;
    const Result r = Pipeline(o).run(cnf);
    EXPECT_EQ(r.stats.subsumed, 0);
    EXPECT_EQ(r.cnf.numClauses(), 2);
}

TEST(Simplify, SelfSubsumptionStrengthens)
{
    // (x0 v x1) with x0 flipped is (~x0 v x1), a subset of
    // (~x0 v x1 v x2): the second clause loses ~x0.
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0, true), mkLit(1), mkLit(2));
    const Result r = Pipeline(equivalencePreserving()).run(cnf);
    EXPECT_GE(r.stats.strengthened, 1);
    EXPECT_EQ(sat::bruteForceSolve(cnf).satisfiable,
              sat::bruteForceSolve(r.cnf).satisfiable);
}

TEST(Simplify, ReducesPhaseTransitionInstances)
{
    // Supersets of existing clauses are all subsumed.
    Rng rng(13);
    Cnf cnf = sat::testing::randomCnf(30, 120, 3, rng);
    const auto base = cnf.clauses();
    for (int i = 0; i < 20; ++i) {
        auto clause = base[static_cast<std::size_t>(i)];
        clause.push_back(mkLit(static_cast<sat::Var>(i % 30)));
        cnf.addClause(clause);
    }
    const Result r = Pipeline(equivalencePreserving()).run(cnf);
    EXPECT_LT(r.cnf.numClauses(), cnf.numClauses());
}

TEST(Pipeline, StatsReportFormulaSizes)
{
    Rng rng(33);
    const Cnf cnf = sat::testing::randomCnf(15, 60, 3, rng);
    const Result r =
        Pipeline(Options::preset(Strength::Full)).run(cnf);
    EXPECT_EQ(r.stats.clauses_in, cnf.numClauses());
    EXPECT_EQ(r.stats.vars_in, cnf.numVars());
    if (r.satisfiable_possible) {
        EXPECT_EQ(r.stats.clauses_out, r.cnf.numClauses());
        EXPECT_LE(r.stats.vars_out, r.stats.vars_in);
    }
}

} // namespace
} // namespace hyqsat::simplify
