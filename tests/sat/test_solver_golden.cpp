/**
 * @file
 * Seed-golden determinism test for the CDCL search.
 *
 * Every row pins one solve end to end: the answer, all eleven
 * SolverStats counters, an FNV-1a digest of the learnt-clause stream
 * (every clause the export hook sees, units included, in
 * asserting-first literal order), the model and finalConflict(). A
 * change that reorders watchers, moves a blocker, swaps literals
 * inside a clause differently, bumps variables in another order or
 * draws the RNG differently changes the search, and shows up here as
 * a hard failure even when the answer stays the same.
 *
 * Inputs per preset: three refutations of 200-variable, 1100-clause
 * uniform random 3-SAT draws (long enough to reach reduceDB, garbage
 * collection and root sweeps), one satisfiable 200-variable draw at
 * ratio 4.26, and one incremental series of three
 * solveWithAssumptions calls with addClause and importClause (one of
 * them a unit) between the calls.
 *
 * The table was captured from the solver before its hot-path rework
 * (literal-indexed values, pointer-walk propagate). Do not regenerate
 * it from the current solver to make a failure go away: a mismatch
 * means the search changed. A failing row prints its actual values
 * in table syntax.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sat/solver.h"
#include "tests/sat/helpers.h"
#include "util/rng.h"

namespace hyqsat::sat {
namespace {

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint32_t word)
    {
        for (int b = 0; b < 4; ++b) {
            h ^= (word >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
};

/** One pinned solve. */
struct Row
{
    const char *name;
    char status; ///< 'S' satisfiable, 'U' unsatisfiable, '?' undecided
    SolverStats stats;
    std::uint64_t learnt_fnv; ///< export stream so far
    std::uint64_t model_fnv;  ///< 0 unless status == 'S'
    int core_size;            ///< finalConflict().size()
    std::uint64_t core_fnv;   ///< digest of finalConflict()
};

std::uint64_t
digestModel(const std::vector<lbool> &model)
{
    Fnv f;
    for (const lbool b : model)
        f.add(b.isTrue() ? 1u : b.isFalse() ? 0u : 2u);
    return f.h;
}

std::uint64_t
digestLits(const LitVec &lits)
{
    Fnv f;
    for (const Lit p : lits)
        f.add(static_cast<std::uint32_t>(p.x));
    return f.h;
}

/** A solver whose export hook digests the learnt stream. */
struct Probe
{
    explicit Probe(const SolverOptions &opts) : solver(opts)
    {
        solver.setLearntExportHook([this](const LitVec &lits) {
            learnt.add(static_cast<std::uint32_t>(lits.size()));
            for (const Lit p : lits)
                learnt.add(static_cast<std::uint32_t>(p.x));
        });
    }

    Row
    row(const char *name, lbool result) const
    {
        Row r{};
        r.name = name;
        r.status = result.isTrue() ? 'S' : result.isFalse() ? 'U' : '?';
        r.stats = solver.stats();
        r.learnt_fnv = learnt.h;
        r.model_fnv = result.isTrue() ? digestModel(solver.model()) : 0;
        r.core_size = static_cast<int>(solver.finalConflict().size());
        r.core_fnv = digestLits(solver.finalConflict());
        return r;
    }

    Solver solver;
    Fnv learnt;
};

std::string
format(const Row &r)
{
    const SolverStats &s = r.stats;
    std::ostringstream os;
    os << "{\"" << r.name << "\", '" << r.status << "',\n     {"
       << s.decisions << ", " << s.propagations << ", " << s.conflicts
       << ", " << s.restarts << ", " << s.learned_clauses << ", "
       << s.removed_clauses << ", " << s.minimized_literals << ", "
       << s.reduce_dbs << ", " << s.exported_clauses << ", "
       << s.imported_clauses << ", " << s.iterations << "},\n     0x"
       << std::hex << r.learnt_fnv << "ull, 0x" << r.model_fnv
       << "ull, " << std::dec << r.core_size << ", 0x" << std::hex
       << r.core_fnv << "ull},";
    return os.str();
}

void
expectRow(const Row &want, const Row &got)
{
    SCOPED_TRACE(want.name);
    const SolverStats &w = want.stats, &g = got.stats;
    const bool same =
        want.status == got.status && w.decisions == g.decisions &&
        w.propagations == g.propagations && w.conflicts == g.conflicts &&
        w.restarts == g.restarts &&
        w.learned_clauses == g.learned_clauses &&
        w.removed_clauses == g.removed_clauses &&
        w.minimized_literals == g.minimized_literals &&
        w.reduce_dbs == g.reduce_dbs &&
        w.exported_clauses == g.exported_clauses &&
        w.imported_clauses == g.imported_clauses &&
        w.iterations == g.iterations && want.learnt_fnv == got.learnt_fnv &&
        want.model_fnv == got.model_fnv &&
        want.core_size == got.core_size && want.core_fnv == got.core_fnv;
    EXPECT_TRUE(same) << "expected " << format(want) << "\n  actual "
                      << format(got);
}

/** 200 variables, 1100 clauses: the hard_uf benchmark's shape. */
Cnf
uuf200(std::uint64_t seed)
{
    Rng rng(seed);
    return testing::randomCnf(200, 1100, 3, rng);
}

LitVec
randomClause(int num_vars, int k, Rng &rng)
{
    LitVec c;
    while (static_cast<int>(c.size()) < k) {
        const Lit p = mkLit(static_cast<Var>(rng.below(num_vars)),
                            rng.chance(0.5));
        bool fresh = true;
        for (const Lit q : c)
            fresh &= q.var() != p.var();
        if (fresh)
            c.push_back(p);
    }
    return c;
}

/** Solve @p cnf from scratch; a satisfying model must check out. */
Row
solveOnce(const char *name, const SolverOptions &opts, const Cnf &cnf)
{
    Probe probe(opts);
    EXPECT_TRUE(probe.solver.loadCnf(cnf));
    const lbool result = probe.solver.solve();
    if (result.isTrue()) {
        EXPECT_TRUE(cnf.eval(probe.solver.boolModel())) << name;
    }
    return probe.row(name, result);
}

/**
 * Three assumption calls on one solver: few assumptions, then many
 * (a refutation under assumptions with a non-empty core), then few
 * again, with original clauses, imported clauses and an imported
 * unit arriving between the calls.
 */
std::vector<Row>
incrementalSeries(const SolverOptions &opts)
{
    constexpr int kVars = 200;
    Rng rng(7301);
    const Cnf cnf = testing::randomCnf(kVars, 800, 3, rng);
    Probe probe(opts);
    Solver &s = probe.solver;
    EXPECT_TRUE(s.loadCnf(cnf));
    const auto assume = [&](int count) {
        return randomClause(kVars, count, rng);
    };

    std::vector<Row> rows;
    rows.push_back(probe.row("inc/1", s.solveWithAssumptions(assume(6))));

    s.addClause(randomClause(kVars, 3, rng));
    s.importClause(randomClause(kVars, 3, rng));
    s.importClause(randomClause(kVars, 1, rng));
    rows.push_back(probe.row("inc/2", s.solveWithAssumptions(assume(60))));

    s.addClause(randomClause(kVars, 3, rng));
    s.importClause(randomClause(kVars, 2, rng));
    rows.push_back(probe.row("inc/3", s.solveWithAssumptions(assume(6))));
    return rows;
}

std::vector<Row>
runPreset(const SolverOptions &opts)
{
    std::vector<Row> rows;
    rows.push_back(solveOnce("uuf/11", opts, uuf200(11)));
    rows.push_back(solveOnce("uuf/12", opts, uuf200(12)));
    rows.push_back(solveOnce("uuf/13", opts, uuf200(13)));
    Rng rng(4260);
    rows.push_back(
        solveOnce("sat/4260", opts, testing::randomCnf(200, 852, 3, rng)));
    for (const Row &r : incrementalSeries(opts))
        rows.push_back(r);
    return rows;
}

void
checkPreset(const SolverOptions &opts, const std::vector<Row> &golden)
{
    const std::vector<Row> got = runPreset(opts);
    std::string actual;
    for (const Row &r : got)
        actual += "\n" + format(r);
    ASSERT_EQ(got.size(), golden.size()) << "actual rows:" << actual;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectRow(golden[i], got[i]);
}

const std::vector<Row> kMinisat = {
    {"uuf/11", 'U',
     {2536, 66244, 2037, 13, 2026, 1889, 5019, 3, 2036, 0, 2536},
     0x101e7ad867d8306cull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"uuf/12", 'U',
     {3491, 98666, 2936, 14, 2926, 3040, 7917, 7, 2935, 0, 3491},
     0xeab65e038d80dc7ull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"uuf/13", 'U',
     {3956, 107536, 3280, 15, 3270, 3529, 9136, 9, 3279, 0, 3956},
     0x2e7f04fc62057e97ull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"sat/4260", 'S',
     {4153, 126859, 3375, 16, 3375, 3057, 8521, 13, 3375, 0, 4153},
     0x65d00e8f5519e056ull, 0xafed7db91c58b9d4ull, 0, 0xcbf29ce484222325ull},
    {"inc/1", 'S',
     {3351, 107804, 2680, 14, 2680, 2381, 6164, 11, 2680, 0, 3351},
     0xe67e0d5a6f962033ull, 0x323b5011750d1514ull, 0, 0xcbf29ce484222325ull},
    {"inc/2", 'U',
     {3351, 107890, 2681, 14, 2680, 2537, 6164, 12, 2680, 2, 3351},
     0xe67e0d5a6f962033ull, 0x0ull, 15, 0x42fb827d2c4c81a1ull},
    {"inc/3", 'U',
     {3799, 121479, 3048, 16, 3046, 2859, 6855, 14, 3046, 3, 3799},
     0xcc232f270fbdb3d6ull, 0x0ull, 6, 0x6d85c3a0e2346be2ull},
};

const std::vector<Row> kKissat = {
    {"uuf/11", 'U',
     {9074, 211150, 6821, 59, 6815, 6635, 13362, 15, 6820, 0, 9074},
     0x82d96796b05a9363ull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"uuf/12", 'U',
     {12989, 301347, 9619, 62, 9612, 9489, 19527, 20, 9618, 0, 12989},
     0x27ee99fda37929adull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"uuf/13", 'U',
     {14688, 338859, 10950, 77, 10943, 10659, 22652, 22, 10949, 0, 14688},
     0x85ef41eb135b6e1aull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"sat/4260", 'S',
     {45971, 1191032, 32662, 196, 32662, 32230, 79705, 74, 32662, 0, 45971},
     0x95b057feb562cf6bull, 0xc898f8e14ea06414ull, 0, 0xcbf29ce484222325ull},
    {"inc/1", 'S',
     {1896, 49489, 1292, 14, 1292, 916, 2539, 4, 1292, 0, 1896},
     0x98ce3eac43bc4370ull, 0xfcee73210ac4d5c4ull, 0, 0xcbf29ce484222325ull},
    {"inc/2", 'U',
     {1896, 49575, 1293, 14, 1292, 1153, 2539, 5, 1292, 2, 1896},
     0x98ce3eac43bc4370ull, 0x0ull, 18, 0x7286e443efda0605ull},
    {"inc/3", 'U',
     {3166, 81858, 2155, 25, 2153, 1770, 4653, 8, 2153, 3, 3166},
     0xb8f18b1f5a977057ull, 0x0ull, 6, 0x6d85c3a0e2346be2ull},
};

const std::vector<Row> kRandomBranch = {
    {"uuf/11", 'U',
     {2073, 55494, 1692, 10, 1685, 1810, 4264, 4, 1691, 0, 2073},
     0x992c43423f9a2de2ull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"uuf/12", 'U',
     {4671, 126365, 3904, 20, 3896, 4018, 9876, 10, 3903, 0, 4671},
     0x22d4b0597b00a2f3ull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"uuf/13", 'U',
     {4703, 124940, 3907, 20, 3900, 4073, 10325, 10, 3906, 0, 4703},
     0x38c787dd5f73a939ull, 0x0ull, 0, 0xcbf29ce484222325ull},
    {"sat/4260", 'S',
     {9023, 274103, 7300, 30, 7300, 6939, 20026, 26, 7300, 0, 9023},
     0x8434ed0dcf4ea9c4ull, 0x6942a031dc890904ull, 0, 0xcbf29ce484222325ull},
    {"inc/1", 'S',
     {1765, 55206, 1335, 8, 1335, 965, 2745, 5, 1335, 0, 1765},
     0xfa4222c4f0381079ull, 0x9ddf60cbc1e930a4ull, 0, 0xcbf29ce484222325ull},
    {"inc/2", 'U',
     {1765, 55293, 1336, 8, 1335, 1159, 2745, 6, 1335, 2, 1765},
     0xfa4222c4f0381079ull, 0x0ull, 15, 0x8f3f599afc29f390ull},
    {"inc/3", 'U',
     {2384, 74984, 1839, 11, 1837, 1482, 3839, 8, 1837, 3, 2384},
     0x2b2aa480a07705dfull, 0x0ull, 6, 0x6d85c3a0e2346be2ull},
};

TEST(SolverGolden, MinisatStyle)
{
    checkPreset(SolverOptions::minisatStyle(), kMinisat);
}

TEST(SolverGolden, KissatStyle)
{
    checkPreset(SolverOptions::kissatStyle(), kKissat);
}

TEST(SolverGolden, RandomBranching)
{
    SolverOptions opts = SolverOptions::minisatStyle();
    opts.random_branch_freq = 0.02;
    checkPreset(opts, kRandomBranch);
}

} // namespace
} // namespace hyqsat::sat
