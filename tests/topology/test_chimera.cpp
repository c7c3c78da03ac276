#include <gtest/gtest.h>

#include <set>

#include "topology/topology.h"

namespace hyqsat::topology {
namespace {

TEST(Chimera, Dwave2000qDimensions)
{
    const auto g = Topology::dwave2000q();
    EXPECT_EQ(g.rows(), 16);
    EXPECT_EQ(g.cols(), 16);
    EXPECT_EQ(g.shore(), 4);
    EXPECT_EQ(g.numQubits(), 2048);
}

TEST(Chimera, CouplerCountMatchesFormula)
{
    // Intra: M*N*L^2; inter vertical: (M-1)*N*L; inter horizontal:
    // M*(N-1)*L.
    const Topology g(3, 5, 4);
    const int expected = 3 * 5 * 16 + 2 * 5 * 4 + 3 * 4 * 4;
    EXPECT_EQ(g.numCouplers(), expected);
    EXPECT_EQ(static_cast<int>(g.edges().size()), expected);
}

TEST(Chimera, Dwave2000qCouplerCount)
{
    const auto g = Topology::dwave2000q();
    EXPECT_EQ(g.numCouplers(), 16 * 16 * 16 + 15 * 16 * 4 + 16 * 15 * 4);
}

TEST(Chimera, CoordRoundTrip)
{
    const Topology g(4, 6, 4);
    for (int q = 0; q < g.numQubits(); ++q) {
        const auto c = g.coord(q);
        EXPECT_EQ(g.qubitId(c.row, c.col, c.shore, c.track), q);
        EXPECT_GE(c.row, 0);
        EXPECT_LT(c.row, 4);
        EXPECT_GE(c.col, 0);
        EXPECT_LT(c.col, 6);
        EXPECT_GE(c.track, 0);
        EXPECT_LT(c.track, 4);
    }
}

TEST(Chimera, IntraCellK44)
{
    const Topology g(2, 2, 4);
    for (int kv = 0; kv < 4; ++kv) {
        for (int kh = 0; kh < 4; ++kh) {
            EXPECT_TRUE(
                g.connected(g.qubitId(0, 0, Shore::Vertical, kv),
                            g.qubitId(0, 0, Shore::Horizontal, kh)));
        }
    }
    // Same-shore qubits in a cell are NOT connected.
    EXPECT_FALSE(g.connected(g.qubitId(0, 0, Shore::Vertical, 0),
                             g.qubitId(0, 0, Shore::Vertical, 1)));
}

TEST(Chimera, InterCellCouplersFollowLines)
{
    const Topology g(3, 3, 4);
    // Vertical track k connects down a column.
    EXPECT_TRUE(g.connected(g.qubitId(0, 1, Shore::Vertical, 2),
                            g.qubitId(1, 1, Shore::Vertical, 2)));
    // ... but not across tracks or columns.
    EXPECT_FALSE(g.connected(g.qubitId(0, 1, Shore::Vertical, 2),
                             g.qubitId(1, 1, Shore::Vertical, 3)));
    EXPECT_FALSE(g.connected(g.qubitId(0, 1, Shore::Vertical, 2),
                             g.qubitId(1, 2, Shore::Vertical, 2)));
    // Horizontal track k connects along a row.
    EXPECT_TRUE(g.connected(g.qubitId(1, 0, Shore::Horizontal, 1),
                            g.qubitId(1, 1, Shore::Horizontal, 1)));
    EXPECT_FALSE(g.connected(g.qubitId(1, 0, Shore::Horizontal, 1),
                             g.qubitId(2, 1, Shore::Horizontal, 1)));
}

TEST(Chimera, InteriorQubitDegree)
{
    const auto g = Topology::dwave2000q();
    // Interior vertical qubit: 4 intra + 2 inter = 6 neighbours.
    const int q = g.qubitId(8, 8, Shore::Vertical, 1);
    EXPECT_EQ(g.neighbors(q).size(), 6u);
    // Corner-cell vertical qubit: 4 intra + 1 inter.
    const int corner = g.qubitId(0, 0, Shore::Vertical, 0);
    EXPECT_EQ(g.neighbors(corner).size(), 5u);
}

TEST(Chimera, EdgesAreCanonicalAndUnique)
{
    const Topology g(3, 3, 2);
    std::set<std::pair<int, int>> seen;
    for (const auto &[a, b] : g.edges()) {
        EXPECT_LT(a, b);
        EXPECT_TRUE(seen.emplace(a, b).second);
    }
}

TEST(Chimera, AdjacencySymmetric)
{
    const Topology g(2, 3, 3);
    for (int q = 0; q < g.numQubits(); ++q) {
        for (int nb : g.neighbors(q))
            EXPECT_TRUE(g.connected(nb, q));
    }
}

TEST(Chimera, LineViewCounts)
{
    const Topology g(5, 7, 4);
    EXPECT_EQ(g.numVerticalLines(), 7 * 4);
    EXPECT_EQ(g.numHorizontalLines(), 5 * 4);
}

TEST(Chimera, VerticalLineIsAConnectedPath)
{
    const Topology g(6, 4, 4);
    const int line = 9; // column 2, track 1
    EXPECT_EQ(g.verticalLineColumn(line), 2);
    for (int r = 0; r + 1 < g.rows(); ++r) {
        EXPECT_TRUE(g.connected(g.verticalLineQubit(line, r),
                                g.verticalLineQubit(line, r + 1)));
    }
}

TEST(Chimera, HorizontalLineIsAConnectedPath)
{
    const Topology g(4, 6, 4);
    const int line = 13; // row 3, track 1
    EXPECT_EQ(g.horizontalLineRow(line), 3);
    for (int c = 0; c + 1 < g.cols(); ++c) {
        EXPECT_TRUE(g.connected(g.horizontalLineQubit(line, c),
                                g.horizontalLineQubit(line, c + 1)));
    }
}

TEST(Chimera, LinesCrossWithACoupler)
{
    const Topology g(4, 4, 4);
    // Vertical line (col 1, track 2) crosses horizontal line
    // (row 3, track 0) in cell (3,1): those qubits are coupled.
    const int vq = g.verticalLineQubit(1 * 4 + 2, 3);
    const int hq = g.horizontalLineQubit(3 * 4 + 0, 1);
    EXPECT_TRUE(g.connected(vq, hq));
}

} // namespace
} // namespace hyqsat::topology
