/**
 * @file
 * The incremental hybrid session: IPASIR-style solve(assumptions)
 * with clause addition between calls, state retention across solves,
 * simplify-eliminated-variable handling (freeze-and-recompile), core
 * map-back, and a fuzz harness racing random ADD/ASSUME/SOLVE
 * interleavings against fresh ground-truth solves.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/session.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"
#include "util/rng.h"

namespace hyqsat::core {
namespace {

using sat::Cnf;
using sat::Lit;
using sat::LitVec;
using sat::mkLit;
using sat::Var;

/** Small config: tiny topology, no embedding — fast warm loop. */
HybridConfig
testConfig()
{
    HybridConfig config;
    config.chimera_rows = 2;
    config.chimera_cols = 2;
    config.sampler = "sa";
    config.warmup_override = 4;
    return config;
}

TEST(Session, SolveAddSolveRetainsState)
{
    Session session(testConfig());
    Rng rng(7);
    const Cnf base = sat::testing::randomCnf(30, 90, 3, rng);
    ASSERT_TRUE(session.addFormula(base));

    const HybridResult first = session.solve();
    ASSERT_FALSE(first.status.isUndef());
    EXPECT_EQ(session.recompiles(), 1);

    // A delta clause must not trigger a recompile, and the second
    // call must agree with a fresh solver on the grown formula.
    Cnf grown = base;
    grown.addClause(mkLit(0), mkLit(1), mkLit(2));
    ASSERT_TRUE(session.addClause(
        LitVec{mkLit(0), mkLit(1), mkLit(2)}));
    const HybridResult second = session.solve();
    EXPECT_EQ(session.recompiles(), 1);
    ASSERT_FALSE(second.status.isUndef());
    EXPECT_EQ(second.status.isTrue(),
              sat::bruteForceSolve(grown).satisfiable);
    if (second.status.isTrue())
        EXPECT_TRUE(grown.eval(second.model));
}

TEST(Session, AssumptionSeriesMatchesFreshSolves)
{
    HybridConfig config = testConfig();
    config.simplify_strength = simplify::Strength::Full;
    Session session(config);
    Rng rng(11);
    const int vars = 16;
    const Cnf base = sat::testing::randomCnf(vars, 40, 3, rng);
    ASSERT_TRUE(session.addFormula(base));

    for (int call = 0; call < 12; ++call) {
        LitVec assumptions;
        const int depth = 1 + static_cast<int>(rng.below(3));
        for (int i = 0; i < depth; ++i) {
            assumptions.push_back(mkLit(
                static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
        }
        const HybridResult r = session.solve(assumptions);
        ASSERT_FALSE(r.status.isUndef()) << "call " << call;

        Cnf direct = base;
        for (const Lit a : assumptions)
            direct.addClause(a);
        EXPECT_EQ(r.status.isTrue(),
                  sat::bruteForceSolve(direct).satisfiable)
            << "call " << call;
        if (r.status.isTrue())
            EXPECT_TRUE(direct.eval(r.model)) << "call " << call;
    }
    EXPECT_EQ(session.solves(), 12);
}

TEST(Session, FailedAssumptionCoreNamesOriginalLiterals)
{
    Session session(testConfig());
    // x0 -> x1, x1 -> x2: assuming x0 and ~x2 must fail, and the
    // core must name (negations of) a subset of the assumptions.
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(0, true), mkLit(1)}));
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(1, true), mkLit(2)}));
    const LitVec assumptions{mkLit(0), mkLit(2, true)};
    const HybridResult r = session.solve(assumptions);
    ASSERT_TRUE(r.status.isFalse());
    const LitVec &core = session.failedAssumptions();
    ASSERT_FALSE(core.empty());
    for (const Lit c : core) {
        bool from_assumption = false;
        for (const Lit a : assumptions)
            from_assumption = from_assumption || c == ~a;
        EXPECT_TRUE(from_assumption);
    }
    // The session recovers: dropping one assumption is satisfiable.
    const HybridResult again = session.solve(LitVec{mkLit(0)});
    EXPECT_TRUE(again.status.isTrue());
}

TEST(Session, UnsatFormulaYieldsEmptyCore)
{
    Session session(testConfig());
    ASSERT_TRUE(session.addClause(LitVec{mkLit(0)}));
    ASSERT_TRUE(session.solve().status.isTrue());
    // Live delta path: the contradiction is detected on addition.
    EXPECT_FALSE(session.addClause(LitVec{mkLit(0, true)}));
    const HybridResult r = session.solve(LitVec{mkLit(1)});
    ASSERT_TRUE(r.status.isFalse());
    EXPECT_TRUE(session.failedAssumptions().empty())
        << "UNSAT-regardless-of-assumptions must report an empty core";
    // Pre-compile additions are lazy; an UNSAT verdict still
    // arrives at the next solve.
    Session lazy(testConfig());
    ASSERT_TRUE(lazy.addClause(LitVec{mkLit(0)}));
    lazy.addClause(LitVec{mkLit(0, true)});
    const HybridResult r2 = lazy.solve(LitVec{mkLit(1)});
    ASSERT_TRUE(r2.status.isFalse());
    EXPECT_TRUE(lazy.failedAssumptions().empty());
}

TEST(Session, AssumptionOnEliminatedVarFreezesAndRecompiles)
{
    HybridConfig config = testConfig();
    config.simplify_strength = simplify::Strength::Full;
    Session session(config);
    // The same shape the simplify-layer test proves BVE eliminates
    // x0 from when unfrozen.
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(0), mkLit(1), mkLit(2)}));
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(0, true), mkLit(2), mkLit(3)}));
    ASSERT_TRUE(session.addClause(LitVec{mkLit(1), mkLit(3)}));

    const HybridResult plain = session.solve();
    ASSERT_TRUE(plain.status.isTrue());
    const int compiles_before = session.recompiles();

    // Assuming over the eliminated variable must transparently
    // freeze it and recompile, then solve correctly both ways.
    for (const bool sign : {false, true}) {
        const LitVec assumptions{mkLit(0, sign)};
        const HybridResult r = session.solve(assumptions);
        ASSERT_FALSE(r.status.isUndef());
        Cnf direct = session.formula();
        direct.addClause(assumptions[0]);
        EXPECT_EQ(r.status.isTrue(),
                  sat::bruteForceSolve(direct).satisfiable);
        if (r.status.isTrue())
            EXPECT_TRUE(direct.eval(r.model));
    }
    EXPECT_GT(session.recompiles(), compiles_before);
    // Frozen now: a third assumption solve stays warm.
    const int after_freeze = session.recompiles();
    const HybridResult warm = session.solve(LitVec{mkLit(0)});
    ASSERT_FALSE(warm.status.isUndef());
    EXPECT_EQ(session.recompiles(), after_freeze);
}

TEST(Session, OpenSessionSharesHybridConfig)
{
    HybridConfig config = testConfig();
    config.seed = 1234;
    HybridSolver solver(config);
    const std::unique_ptr<Session> session = solver.openSession();
    EXPECT_EQ(session->config().seed, 1234u);
    ASSERT_TRUE(
        session->addClause(LitVec{mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(session->solve().status.isTrue());
}

TEST(Session, MetricsMergeOnClose)
{
    MetricsRegistry external;
    HybridConfig config = testConfig();
    config.metrics = &external;
    {
        Session session(config);
        ASSERT_TRUE(
            session.addClause(LitVec{mkLit(0), mkLit(1)}));
        session.solve();
        session.solve(LitVec{mkLit(0)});
    }
    EXPECT_EQ(external.counter("session.solves")->value(), 2u);
    EXPECT_EQ(external.counter("session.recompiles")->value(), 1u);
}

/**
 * A registry's JSON as (section, name) -> value, without session.*
 * names. Counter values are exact; every other section keeps only
 * its names, because timers, gauges and histogram sums hold
 * wall-clock readings.
 */
std::map<std::pair<std::string, std::string>, std::string>
registryEntries(const MetricsRegistry &registry)
{
    std::ostringstream json;
    registry.writeJson(json);
    std::istringstream in(json.str());
    std::map<std::pair<std::string, std::string>, std::string> out;
    std::string section;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("  \"", 0) == 0) {
            section = line.substr(3, line.find('"', 3) - 3);
            continue;
        }
        if (line.rfind("    \"", 0) != 0)
            continue;
        const std::size_t close = line.find('"', 5);
        const std::string name = line.substr(5, close - 5);
        if (name.rfind("session.", 0) == 0)
            continue;
        std::string value;
        if (section == "counters") {
            value = line.substr(close + 3);
            if (!value.empty() && value.back() == ',')
                value.pop_back();
        }
        out[{section, name}] = value;
    }
    return out;
}

/**
 * The one-shot hybrid solve and an explicit Session over the same
 * formula run one loop: status, model, every CDCL counter, the
 * sampling accounting and the attached registry (session.* aside)
 * agree bit for bit across simplify strengths, device models and
 * seeds; the one-shot registry carries no session.* key.
 */
TEST(HybridSessionAB, OneShotSolveMatchesSession)
{
    const simplify::Strength strengths[] = {simplify::Strength::Off,
                                            simplify::Strength::Light,
                                            simplify::Strength::Full};
    for (const simplify::Strength strength : strengths) {
        for (const bool noisy : {false, true}) {
            for (int seed = 0; seed < 4; ++seed) {
                const std::string where =
                    "strength " +
                    std::to_string(static_cast<int>(strength)) +
                    (noisy ? " noisy" : " noise-free") + " seed " +
                    std::to_string(seed);
                Rng gen(3000 + static_cast<std::uint64_t>(seed));
                const int vars = 36 + 6 * seed;
                Cnf cnf = sat::testing::randomCnf(
                    vars, vars * 4 + 10, 3, gen);
                // Binary clauses give the Light passes (equivalent
                // literals, self-subsumption) something to rewrite.
                for (int i = 0; i < 6; ++i) {
                    cnf.addClause(LitVec{
                        mkLit(static_cast<Var>(gen.below(vars / 2)),
                              gen.chance(0.5)),
                        mkLit(static_cast<Var>(vars / 2 +
                                               gen.below(vars / 2)),
                              gen.chance(0.5))});
                }

                HybridConfig cfg;
                cfg.annealer.noise =
                    noisy ? anneal::NoiseModel::dwave2000q()
                          : anneal::NoiseModel::noiseFree();
                cfg.annealer.greedy_finish = true;
                cfg.sampler = "qa";
                cfg.simplify_strength = strength;
                cfg.seed = 0x5e55 + static_cast<std::uint64_t>(seed);

                MetricsRegistry one_shot_metrics;
                cfg.metrics = &one_shot_metrics;
                const HybridResult a = HybridSolver(cfg).solve(cnf);

                MetricsRegistry session_metrics;
                cfg.metrics = &session_metrics;
                HybridResult b;
                {
                    Session session(cfg);
                    ASSERT_TRUE(session.addFormula(cnf)) << where;
                    b = session.solve();
                }

                EXPECT_EQ(a.status.isTrue(), b.status.isTrue()) << where;
                EXPECT_EQ(a.status.isFalse(), b.status.isFalse())
                    << where;
                EXPECT_EQ(a.model, b.model) << where;
                EXPECT_EQ(a.stats.decisions, b.stats.decisions) << where;
                EXPECT_EQ(a.stats.propagations, b.stats.propagations)
                    << where;
                EXPECT_EQ(a.stats.conflicts, b.stats.conflicts) << where;
                EXPECT_EQ(a.stats.restarts, b.stats.restarts) << where;
                EXPECT_EQ(a.stats.learned_clauses,
                          b.stats.learned_clauses)
                    << where;
                EXPECT_EQ(a.stats.removed_clauses,
                          b.stats.removed_clauses)
                    << where;
                EXPECT_EQ(a.stats.minimized_literals,
                          b.stats.minimized_literals)
                    << where;
                EXPECT_EQ(a.stats.reduce_dbs, b.stats.reduce_dbs)
                    << where;
                EXPECT_EQ(a.stats.exported_clauses,
                          b.stats.exported_clauses)
                    << where;
                EXPECT_EQ(a.stats.imported_clauses,
                          b.stats.imported_clauses)
                    << where;
                EXPECT_EQ(a.stats.iterations, b.stats.iterations)
                    << where;
                EXPECT_EQ(a.qa_samples, b.qa_samples) << where;
                EXPECT_EQ(a.qa_submitted, b.qa_submitted) << where;
                EXPECT_EQ(a.warmup_iterations, b.warmup_iterations)
                    << where;
                EXPECT_EQ(a.chain_breaks, b.chain_breaks) << where;
                EXPECT_EQ(a.strategy_count, b.strategy_count) << where;
                EXPECT_EQ(a.solved_by_qa, b.solved_by_qa) << where;

                EXPECT_EQ(registryEntries(one_shot_metrics),
                          registryEntries(session_metrics))
                    << where;
                std::ostringstream json;
                one_shot_metrics.writeJson(json);
                EXPECT_EQ(json.str().find("\"session."),
                          std::string::npos)
                    << where;
            }
        }
    }
}

/**
 * Root propagation while the solver loads the formula is the first
 * call's work: a one-shot solve reports it in its stats (as the
 * registry's solver.* counters do), and a formula refuted while
 * loading reports the loader's stats.
 */
TEST(HybridSessionAB, LoadTimePropagationCountsInTheFirstCall)
{
    Cnf units(4);
    units.addClause(mkLit(0));
    units.addClause(mkLit(0, true), mkLit(1));
    units.addClause(mkLit(1, true), mkLit(2), mkLit(3));
    Cnf refuted = units;
    refuted.addClause(mkLit(1, true));

    for (const Cnf *cnf : {&units, &refuted}) {
        sat::Solver loader;
        const bool loads = loader.loadCnf(*cnf);
        ASSERT_GT(loader.stats().propagations, 0u);

        MetricsRegistry registry;
        HybridConfig cfg = testConfig();
        cfg.metrics = &registry;
        const HybridResult r = HybridSolver(cfg).solve(*cnf);
        EXPECT_EQ(r.status.isFalse(), !loads);
        if (loads) {
            EXPECT_EQ(r.stats.propagations,
                      registry.counter("solver.propagations")->value());
        } else {
            EXPECT_EQ(r.stats.propagations,
                      loader.stats().propagations);
            // Refuted before the sampling pipeline was built.
            EXPECT_EQ(registryEntries(registry).count(
                          {"counters", "pipeline.submitted"}),
                      0u);
        }
    }
}

/**
 * The fuzz harness (issue satellite): random ADD/ASSUME/SOLVE
 * interleavings against fresh-solver ground truth. SAT models are
 * verified clause by clause (Cnf::eval over the accumulated formula
 * plus the assumptions); UNSAT cores are checked consistent by
 * re-solving the formula with only the core's assumptions — that
 * subset must itself be UNSAT.
 */
TEST(SessionFuzz, RandomInterleavingsMatchGroundTruth)
{
    Rng gen(101);
    for (int round = 0; round < 6; ++round) {
        HybridConfig config = testConfig();
        config.simplify_strength = (round % 2) != 0
                                       ? simplify::Strength::Full
                                       : simplify::Strength::Off;
        config.seed = 0x9e3779b9u + static_cast<std::uint64_t>(round);
        Session session(config);
        const int vars = 12;
        Cnf reference(vars);
        LitVec pending_assumptions;

        const int steps = 30;
        for (int step = 0; step < steps; ++step) {
            const double dice = gen.uniform();
            if (dice < 0.45) { // ADD
                LitVec clause;
                const int len = 1 + static_cast<int>(gen.below(3));
                while (static_cast<int>(clause.size()) < len) {
                    const Var v = static_cast<Var>(gen.below(vars));
                    bool fresh = true;
                    for (const Lit p : clause)
                        fresh = fresh && p.var() != v;
                    if (fresh)
                        clause.push_back(mkLit(v, gen.chance(0.5)));
                }
                reference.addClause(clause);
                session.addClause(clause);
            } else if (dice < 0.70) { // ASSUME
                pending_assumptions.push_back(mkLit(
                    static_cast<Var>(gen.below(vars)),
                    gen.chance(0.5)));
            } else { // SOLVE
                const LitVec assumptions = pending_assumptions;
                pending_assumptions.clear();
                const HybridResult r = session.solve(assumptions);
                ASSERT_FALSE(r.status.isUndef())
                    << "round " << round << " step " << step;

                Cnf direct = reference;
                for (const Lit a : assumptions)
                    direct.addClause(a);
                const bool expected =
                    sat::bruteForceSolve(direct).satisfiable;
                ASSERT_EQ(r.status.isTrue(), expected)
                    << "round " << round << " step " << step;

                if (r.status.isTrue()) {
                    ASSERT_TRUE(direct.eval(r.model))
                        << "round " << round << " step " << step;
                } else {
                    // Core consistency: the core alone (as
                    // assumptions over the formula) must be UNSAT.
                    Cnf core_check = reference;
                    for (const Lit c :
                         session.failedAssumptions()) {
                        core_check.addClause(~c);
                    }
                    ASSERT_FALSE(
                        sat::bruteForceSolve(core_check).satisfiable)
                        << "round " << round << " step " << step;
                }
            }
        }
    }
}

} // namespace
} // namespace hyqsat::core
