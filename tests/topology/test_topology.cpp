#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/hybrid_solver.h"
#include "embed/hyqsat_embedder.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"
#include "topology/topology.h"

namespace hyqsat::topology {
namespace {

TEST(Topology, KindNamesRoundTrip)
{
    EXPECT_STREQ(kindName(Kind::Chimera), "chimera");
    EXPECT_STREQ(kindName(Kind::Pegasus), "pegasus");
    EXPECT_STREQ(kindName(Kind::Zephyr), "zephyr");
    for (Kind k : {Kind::Chimera, Kind::Pegasus, Kind::Zephyr}) {
        const auto parsed = parseKind(kindName(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_FALSE(parseKind("").has_value());
    EXPECT_FALSE(parseKind("Chimera").has_value());
    EXPECT_FALSE(parseKind("zephyr2").has_value());
}

TEST(Topology, SharedGraphIsOnePerShape)
{
    const auto chimera = Topology::shared(Kind::Chimera, 4, 4, 4);
    ASSERT_NE(chimera, nullptr);
    EXPECT_EQ(Topology::shared(Kind::Chimera, 4, 4, 4), chimera);
    EXPECT_EQ(chimera->kind(), Kind::Chimera);
    EXPECT_EQ(chimera->rows(), 4);
    EXPECT_EQ(chimera->cols(), 4);
    EXPECT_EQ(chimera->shore(), 4);
    EXPECT_EQ(chimera->numCouplers(), Topology(4, 4, 4).numCouplers());

    std::set<const Topology *> distinct{chimera.get()};
    for (const auto &other :
         {Topology::shared(Kind::Pegasus, 4, 4, 4),
          Topology::shared(Kind::Chimera, 5, 4, 4),
          Topology::shared(Kind::Chimera, 4, 5, 4),
          Topology::shared(Kind::Chimera, 4, 4, 2)})
        distinct.insert(other.get());
    EXPECT_EQ(distinct.size(), 5u);
}

TEST(Topology, ChimeraMatchesLegacyExpectations)
{
    // The plain constructor builds a Chimera graph: K_{4,4}
    // cells chained cell by cell. Counts for a 16x16, shore-4 fabric:
    // 16*16*8 qubits; couplers = cells*16 intra + chains.
    const Topology g(16, 16, 4);
    EXPECT_EQ(g.kind(), Kind::Chimera);
    EXPECT_STREQ(g.name(), "chimera");
    EXPECT_EQ(g.lineReach(), 1);
    EXPECT_EQ(g.numQubits(), 2048);
    const int intra = 16 * 16 * 16;       // K_{4,4} per cell
    const int vert = 15 * 16 * 4;         // vertical chains
    const int horiz = 16 * 15 * 4;        // horizontal chains
    EXPECT_EQ(g.numCouplers(), intra + vert + horiz);

    // Degree 6 interior: 4 intra-cell + 2 along the line.
    const int q = g.qubitId(8, 8, Shore::Vertical, 2);
    EXPECT_EQ(static_cast<int>(g.neighbors(q).size()), 6);
    EXPECT_TRUE(g.connected(g.verticalLineQubit(2, 3),
                            g.verticalLineQubit(2, 4)));
    EXPECT_FALSE(g.connected(g.verticalLineQubit(2, 3),
                             g.verticalLineQubit(2, 5)));
}

TEST(Topology, PegasusKeepsChimeraSkeleton)
{
    const Topology c = Topology::chimera(6, 6, 4);
    const Topology p = Topology::pegasus(6, 6, 4);
    EXPECT_EQ(p.numQubits(), c.numQubits());
    EXPECT_EQ(p.lineReach(), 2);
    // Every Chimera coupler survives in the Pegasus-style graph.
    for (const auto &[a, b] : c.edges())
        EXPECT_TRUE(p.connected(a, b)) << a << "-" << b;
    EXPECT_GT(p.numCouplers(), c.numCouplers());
}

TEST(Topology, PegasusOddCouplersPairAdjacentTracks)
{
    const Topology p = Topology::pegasus(4, 4, 4);
    // Tracks (0,1) and (2,3) of the same shore in the same cell.
    for (Shore s : {Shore::Vertical, Shore::Horizontal}) {
        EXPECT_TRUE(p.connected(p.qubitId(1, 2, s, 0),
                                p.qubitId(1, 2, s, 1)));
        EXPECT_TRUE(p.connected(p.qubitId(1, 2, s, 2),
                                p.qubitId(1, 2, s, 3)));
        // But not across pair boundaries or cells.
        EXPECT_FALSE(p.connected(p.qubitId(1, 2, s, 1),
                                 p.qubitId(1, 2, s, 2)));
        EXPECT_FALSE(p.connected(p.qubitId(1, 2, s, 0),
                                 p.qubitId(1, 3, s, 1)));
    }
    // Chimera has neither.
    const Topology c = Topology::chimera(4, 4, 4);
    EXPECT_FALSE(c.connected(c.qubitId(1, 2, Shore::Vertical, 0),
                             c.qubitId(1, 2, Shore::Vertical, 1)));
}

TEST(Topology, PegasusSkipCouplersStrideTwoCells)
{
    const Topology p = Topology::pegasus(5, 5, 4);
    // Vertical line: rows r and r+2 connected; horizontal: cols.
    EXPECT_TRUE(p.connected(p.verticalLineQubit(7, 0),
                            p.verticalLineQubit(7, 2)));
    EXPECT_TRUE(p.connected(p.verticalLineQubit(7, 2),
                            p.verticalLineQubit(7, 4)));
    EXPECT_FALSE(p.connected(p.verticalLineQubit(7, 0),
                             p.verticalLineQubit(7, 3)));
    EXPECT_TRUE(p.connected(p.horizontalLineQubit(3, 1),
                            p.horizontalLineQubit(3, 3)));
    const Topology c = Topology::chimera(5, 5, 4);
    EXPECT_FALSE(c.connected(c.verticalLineQubit(7, 0),
                             c.verticalLineQubit(7, 2)));
}

TEST(Topology, ZephyrKeepsPegasusCouplers)
{
    const Topology p = Topology::pegasus(6, 6, 4);
    const Topology z = Topology::zephyr(6, 6, 4);
    EXPECT_EQ(z.kind(), Kind::Zephyr);
    EXPECT_STREQ(z.name(), "zephyr");
    EXPECT_EQ(z.numQubits(), p.numQubits());
    EXPECT_EQ(z.lineReach(), 3);
    // Every Pegasus coupler (and hence the Chimera skeleton)
    // survives in the Zephyr-style graph.
    for (const auto &[a, b] : p.edges())
        EXPECT_TRUE(z.connected(a, b)) << a << "-" << b;
    // The extras are exactly the skip-3 couplers: rows-3 per
    // vertical line and cols-3 per horizontal line.
    const int skip3 = (6 - 3) * 6 * 4 * 2;
    EXPECT_EQ(z.numCouplers(), p.numCouplers() + skip3);
}

TEST(Topology, ZephyrSkipCouplersStrideThreeCells)
{
    const Topology z = Topology::zephyr(7, 7, 4);
    // Vertical line: rows r and r+3 connected (plus the Pegasus
    // strides 1 and 2); never stride 4+.
    EXPECT_TRUE(z.connected(z.verticalLineQubit(9, 0),
                            z.verticalLineQubit(9, 3)));
    EXPECT_TRUE(z.connected(z.verticalLineQubit(9, 2),
                            z.verticalLineQubit(9, 5)));
    EXPECT_TRUE(z.connected(z.verticalLineQubit(9, 1),
                            z.verticalLineQubit(9, 3)));
    EXPECT_FALSE(z.connected(z.verticalLineQubit(9, 0),
                             z.verticalLineQubit(9, 4)));
    EXPECT_TRUE(z.connected(z.horizontalLineQubit(5, 1),
                            z.horizontalLineQubit(5, 4)));
    EXPECT_FALSE(z.connected(z.horizontalLineQubit(5, 0),
                             z.horizontalLineQubit(5, 4)));
    // Pegasus stops at stride 2.
    const Topology p = Topology::pegasus(7, 7, 4);
    EXPECT_FALSE(p.connected(p.verticalLineQubit(9, 0),
                             p.verticalLineQubit(9, 3)));
}

TEST(Topology, OddCouplerPartnersAndCapability)
{
    const Topology p = Topology::pegasus(4, 4, 4);
    EXPECT_TRUE(p.hasOddCouplers());
    EXPECT_TRUE(Topology::zephyr(4, 4, 4).hasOddCouplers());
    EXPECT_FALSE(Topology::chimera(4, 4, 4).hasOddCouplers());

    // Tracks pair as (2t, 2t+1) within the same cell row: line
    // r*shore + track. Row 2, shore 4: lines 8..11.
    EXPECT_EQ(p.horizontalLinePartner(8), 9);
    EXPECT_EQ(p.horizontalLinePartner(9), 8);
    EXPECT_EQ(p.horizontalLinePartner(10), 11);
    EXPECT_EQ(p.horizontalLinePartner(11), 10);
    // Partner lines share the cell row and are odd-coupled at every
    // column they both cross.
    for (int line = 0; line < p.numHorizontalLines(); ++line) {
        const int partner = p.horizontalLinePartner(line);
        ASSERT_GE(partner, 0);
        EXPECT_EQ(p.horizontalLineRow(partner),
                  p.horizontalLineRow(line));
        for (int c = 0; c < p.cols(); ++c) {
            EXPECT_TRUE(
                p.connected(p.horizontalLineQubit(line, c),
                            p.horizontalLineQubit(partner, c)));
        }
    }

    // Odd shore: the unpaired tail track has no partner.
    const Topology odd = Topology::pegasus(3, 3, 3);
    EXPECT_EQ(odd.horizontalLinePartner(0), 1);
    EXPECT_EQ(odd.horizontalLinePartner(1), 0);
    EXPECT_EQ(odd.horizontalLinePartner(2), -1);
    EXPECT_EQ(odd.horizontalLinePartner(3 + 2), -1); // row 1 tail

    // Chimera has no odd couplers at all.
    const Topology c = Topology::chimera(4, 4, 4);
    for (int line = 0; line < c.numHorizontalLines(); ++line)
        EXPECT_EQ(c.horizontalLinePartner(line), -1);
}

TEST(Topology, EdgesAreCanonicalAndUnique)
{
    for (const Topology &g :
         {Topology::chimera(3, 4, 2), Topology::pegasus(3, 4, 2),
          Topology::zephyr(4, 5, 2)}) {
        std::set<std::pair<int, int>> seen;
        for (const auto &e : g.edges()) {
            EXPECT_LT(e.first, e.second);
            EXPECT_GE(e.first, 0);
            EXPECT_LT(e.second, g.numQubits());
            EXPECT_TRUE(seen.insert(e).second)
                << "duplicate coupler " << e.first << "-" << e.second;
        }
        // Adjacency is the symmetric closure of the edge list.
        std::size_t degree_sum = 0;
        for (int q = 0; q < g.numQubits(); ++q) {
            const auto &n = g.neighbors(q);
            EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
            degree_sum += n.size();
        }
        EXPECT_EQ(degree_sum, 2 * seen.size());
    }
}

TEST(Topology, EmbedderProducesValidPegasusEmbeddings)
{
    // The fast embedder must produce connected, separated chains on
    // both families; Pegasus chains may use skip couplers.
    Rng rng(17);
    const auto cnf = sat::testing::randomCnf(15, 30, 3, rng);
    const std::vector<sat::LitVec> clauses(cnf.clauses().begin(),
                                           cnf.clauses().end());
    for (const Topology &g :
         {Topology::chimera(16, 16, 4), Topology::pegasus(16, 16, 4),
          Topology::zephyr(16, 16, 4)}) {
        embed::HyQsatEmbedder embedder(g);
        const auto fx = embedder.embedQueue(clauses);
        EXPECT_GT(fx.embedded_clauses, 0) << g.name();
        for (const auto &chain : fx.embedding.chains()) {
            ASSERT_FALSE(chain.empty());
            // Connectivity: the chain-induced subgraph is connected
            // (BFS from the first qubit reaches every member).
            std::set<int> members(chain.begin(), chain.end());
            std::set<int> seen{chain.front()};
            std::vector<int> frontier{chain.front()};
            while (!frontier.empty()) {
                const int q = frontier.back();
                frontier.pop_back();
                for (int nb : g.neighbors(q)) {
                    if (members.count(nb) && seen.insert(nb).second)
                        frontier.push_back(nb);
                }
            }
            EXPECT_EQ(seen.size(), members.size())
                << g.name() << " chain starting at " << chain.front()
                << " is disconnected";
        }
    }
}

TEST(Topology, HybridSolveRunsOnZephyr)
{
    Rng rng(27);
    const auto cnf = sat::testing::randomCnf(20, 70, 3, rng);
    const auto truth = sat::bruteForceSolve(cnf);
    core::HybridConfig cfg;
    cfg.topology = Kind::Zephyr;
    cfg.chimera_rows = 8;
    cfg.chimera_cols = 8;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.warmup_override = 6;
    cfg.seed = 0x2e9f;
    core::HybridSolver solver(cfg);
    EXPECT_EQ(solver.graph().kind(), Kind::Zephyr);
    const auto res = solver.solve(cnf);
    ASSERT_TRUE(res.status.isTrue() || res.status.isFalse());
    EXPECT_EQ(res.status.isTrue(), truth.satisfiable);
    if (res.status.isTrue())
        EXPECT_TRUE(cnf.eval(res.model));
}

TEST(Topology, HybridSolveRunsOnPegasus)
{
    Rng rng(23);
    for (int round = 0; round < 3; ++round) {
        const auto cnf = sat::testing::randomCnf(20, 70, 3, rng);
        const auto truth = sat::bruteForceSolve(cnf);
        core::HybridConfig cfg;
        cfg.topology = Kind::Pegasus;
        cfg.chimera_rows = 8;
        cfg.chimera_cols = 8;
        cfg.annealer.noise = anneal::NoiseModel::noiseFree();
        cfg.annealer.greedy_finish = true;
        cfg.warmup_override = 6;
        cfg.seed = 0x900d + static_cast<std::uint64_t>(round);
        core::HybridSolver solver(cfg);
        EXPECT_EQ(solver.graph().kind(), Kind::Pegasus);
        const auto res = solver.solve(cnf);
        ASSERT_TRUE(res.status.isTrue() || res.status.isFalse());
        EXPECT_EQ(res.status.isTrue(), truth.satisfiable)
            << "round " << round;
        if (res.status.isTrue()) {
            EXPECT_TRUE(cnf.eval(res.model));
        }
    }
}

} // namespace
} // namespace hyqsat::topology
