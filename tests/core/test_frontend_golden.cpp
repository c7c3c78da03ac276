/**
 * @file
 * Frontend golden: one frontend pass (clause queue -> QUBO encode ->
 * embed) must reproduce the captured output bit for bit. Each case
 * runs Frontend::run at fixed iterations of a deterministic solve and
 * folds everything downstream consumers read into one FNV-1a digest:
 * the queue, every QuboModel of the EncodedProblem (offset, linear
 * terms and quadraticTerms() in iteration order, as exact bit
 * patterns), d_star, each sub-clause's d and alpha, the node list and
 * var_node in iteration order, and the Embedding chains. The map
 * iteration orders are part of the contract: quboToIsing sums and the
 * annealer's noise replay walk them in that order.
 *
 * The digests were captured from the frontend before its encoder and
 * embedder state went flat; any change to the output shows up here.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/frontend.h"
#include "gen/circuit.h"
#include "gen/graph_coloring.h"
#include "gen/random_sat.h"
#include "sat/cnf.h"

namespace hyqsat::core {
namespace {

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (x >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
    void add(int x) { add(static_cast<std::uint64_t>(x)); }
    void add(bool x) { add(static_cast<std::uint64_t>(x)); }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void
digestModel(Digest &d, const qubo::QuboModel &q)
{
    d.add(q.offset());
    d.add(q.numVars());
    for (double b : q.linearTerms())
        d.add(b);
    d.add(static_cast<int>(q.quadraticTerms().size()));
    for (const auto &[key, c] : q.quadraticTerms()) {
        d.add(key.packed);
        d.add(c);
    }
}

void
digestResult(Digest &d, const FrontendResult &r)
{
    for (int ci : r.queue)
        d.add(ci);
    d.add(static_cast<int>(r.embedded_clauses.size()));
    d.add(r.covers_all_unsatisfied);

    const embed::QueueEmbedResult &e = *r.embedded;
    d.add(e.embedded_clauses);
    d.add(e.all_embedded);

    const qubo::EncodedProblem &p = e.problem;
    for (const auto &clause : p.clauses) {
        d.add(static_cast<int>(clause.size()));
        for (sat::Lit l : clause)
            d.add(l.x);
    }
    for (const auto &n : p.nodes) {
        d.add(n.is_aux);
        d.add(n.var);
        d.add(n.clause);
    }
    for (const auto &[v, node] : p.var_node) {
        d.add(v);
        d.add(node);
    }
    for (int aux : p.clause_aux)
        d.add(aux);
    for (const auto &sc : p.sub_clauses) {
        d.add(sc.clause);
        d.add(sc.sub);
        d.add(sc.d);
        d.add(sc.alpha);
    }
    digestModel(d, p.unit_objective);
    digestModel(d, p.objective);
    digestModel(d, p.normalized);
    d.add(p.d_star);

    d.add(e.embedding.numNodes());
    for (const auto &chain : e.embedding.chains()) {
        d.add(static_cast<int>(chain.size()));
        for (int q : chain)
            d.add(q);
    }
}

/** What one case observed besides its digest. */
struct Observed
{
    std::uint64_t digest = 0;
    int runs = 0;
    int prefix_runs = 0;    ///< runs whose embed stopped on a prefix
    int full_queues = 0;    ///< runs whose queue hit the capacity
    int tautology_runs = 0; ///< runs with a tautology in the queue
};

bool
isTautology(const sat::LitVec &clause)
{
    for (sat::Lit a : clause)
        for (sat::Lit b : clause)
            if (a == ~b)
                return true;
    return false;
}

/**
 * Run the frontend at every @p stride-th solver iteration up to
 * @p max_runs runs, with one persistent workspace and one RNG stream,
 * and digest every result.
 */
Observed
runCase(const sat::Cnf &cnf, const topology::Topology &graph,
        std::uint64_t seed, int stride, int max_runs)
{
    sat::SolverOptions sopts;
    sopts.instrument_clauses = true;
    sat::Solver solver(sopts);
    EXPECT_TRUE(solver.loadCnf(cnf));

    FrontendOptions fopts;
    const Frontend frontend(graph, fopts);
    FrontendWorkspace ws;
    Rng rng(seed);
    Digest digest;
    Observed seen;
    std::uint64_t iteration = 0;
    solver.setIterationHook([&](sat::Solver &s) {
        if (iteration++ % stride != 0)
            return;
        const FrontendResult r = frontend.run(s, rng, ws);
        digestResult(digest, r);
        ++seen.runs;
        seen.prefix_runs += r.embedded->all_embedded ? 0 : 1;
        seen.full_queues +=
            static_cast<int>(r.queue.size()) == fopts.queue.capacity;
        for (int ci : r.queue) {
            if (isTautology(s.originalClause(ci))) {
                ++seen.tautology_runs;
                break;
            }
        }
        if (seen.runs >= max_runs)
            s.requestStop();
    });
    (void)solver.solve();
    seen.digest = digest.value();
    return seen;
}

TEST(FrontendGolden, GraphColoring)
{
    Rng gen(101);
    const auto cnf = gen::flatColoringCnf(50, 120, 3, gen);
    const auto seen =
        runCase(cnf, topology::Topology(16, 16, 4), 7, 1, 24);
    EXPECT_EQ(seen.runs, 24);
    EXPECT_EQ(seen.digest, 0x68258f106e148f92ull);
}

TEST(FrontendGolden, CircuitFaultAnalysis)
{
    Rng gen(202);
    const gen::Circuit c = gen::randomCircuit(10, 40, 4, gen);
    const auto cnf = sat::toThreeSat(gen::faultMiter(c, -1, false));
    const auto seen =
        runCase(cnf, topology::Topology(16, 16, 4), 11, 1, 24);
    EXPECT_EQ(seen.runs, 21); // the solve ends first
    EXPECT_EQ(seen.digest, 0xaec177c518274213ull);
}

TEST(FrontendGolden, UniformQueueBeyondCapacity)
{
    // Early in the search most clauses are unsatisfied, so the queue
    // fills to capacity and only a prefix fits the hardware.
    Rng gen(303);
    const auto cnf = gen::uniformRandom3Sat(400, 1700, gen);
    const auto seen =
        runCase(cnf, topology::Topology(16, 16, 4), 13, 1, 6);
    EXPECT_EQ(seen.runs, 6);
    EXPECT_GT(seen.prefix_runs, 0);
    EXPECT_GT(seen.full_queues, 0);
    EXPECT_EQ(seen.digest, 0x6c64b00d4746ee9eull);
}

TEST(FrontendGolden, QueueWithTautology)
{
    Rng gen(404);
    sat::Cnf cnf = gen::uniformRandom3Sat(24, 80, gen);
    cnf.addClause({sat::mkLit(3), sat::mkLit(3, true), sat::mkLit(5)});
    cnf.addClause({sat::mkLit(7, true), sat::mkLit(9), sat::mkLit(7)});
    const auto seen =
        runCase(cnf, topology::Topology(16, 16, 4), 17, 1, 4);
    EXPECT_EQ(seen.runs, 4);
    EXPECT_GT(seen.tautology_runs, 0);
    EXPECT_EQ(seen.digest, 0xf5470b015a18a0d9ull);
}

TEST(FrontendGolden, PegasusOddCouplers)
{
    // Odd-coupled partner lines and skip-coupler stepping stones only
    // exist off Chimera.
    Rng gen(505);
    const auto cnf = gen::flatColoringCnf(60, 150, 3, gen);
    const auto seen = runCase(
        cnf, topology::Topology::pegasus(8, 8, 4), 19, 2, 12);
    EXPECT_EQ(seen.runs, 12);
    EXPECT_EQ(seen.digest, 0x6403e94f4bde1168ull);
}

} // namespace
} // namespace hyqsat::core
