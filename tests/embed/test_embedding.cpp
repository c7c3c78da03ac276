#include <gtest/gtest.h>

#include "embed/embedding.h"
#include "topology/topology.h"

namespace hyqsat::embed {
namespace {

using topology::Topology;
using topology::Shore;

TEST(Embedding, EmptyChainInvalid)
{
    const Topology g(2, 2, 4);
    Embedding e(1);
    std::string why;
    EXPECT_FALSE(e.isValid(g, {}, &why));
    EXPECT_NE(why.find("empty"), std::string::npos);
}

TEST(Embedding, SingleQubitChainsValid)
{
    const Topology g(2, 2, 4);
    Embedding e(2);
    e.chain(0).push_back(0);
    e.chain(1).push_back(1);
    EXPECT_TRUE(e.isValid(g, {}));
}

TEST(Embedding, OverlappingChainsInvalid)
{
    const Topology g(2, 2, 4);
    Embedding e(2);
    e.chain(0).push_back(3);
    e.chain(1).push_back(3);
    std::string why;
    EXPECT_FALSE(e.isValid(g, {}, &why));
    EXPECT_NE(why.find("shared"), std::string::npos);
}

TEST(Embedding, DisconnectedChainInvalid)
{
    const Topology g(2, 2, 4);
    Embedding e(1);
    // Two vertical qubits in the same cell are not coupled.
    e.chain(0).push_back(g.qubitId(0, 0, Shore::Vertical, 0));
    e.chain(0).push_back(g.qubitId(0, 0, Shore::Vertical, 1));
    std::string why;
    EXPECT_FALSE(e.isValid(g, {}, &why));
    EXPECT_NE(why.find("disconnected"), std::string::npos);
}

TEST(Embedding, ConnectedTwoQubitChainValid)
{
    const Topology g(2, 2, 4);
    Embedding e(1);
    e.chain(0).push_back(g.qubitId(0, 0, Shore::Vertical, 0));
    e.chain(0).push_back(g.qubitId(0, 0, Shore::Horizontal, 0));
    EXPECT_TRUE(e.isValid(g, {}));
}

TEST(Embedding, MissingEdgeCouplerInvalid)
{
    const Topology g(2, 2, 4);
    Embedding e(2);
    // Two vertical qubits in different cells of different columns:
    // no coupler.
    e.chain(0).push_back(g.qubitId(0, 0, Shore::Vertical, 0));
    e.chain(1).push_back(g.qubitId(1, 1, Shore::Vertical, 0));
    std::string why;
    EXPECT_FALSE(e.isValid(g, {{0, 1}}, &why));
    EXPECT_NE(why.find("no coupler"), std::string::npos);
}

TEST(Embedding, EdgeCouplerFoundAcrossChains)
{
    const Topology g(2, 2, 4);
    Embedding e(2);
    const int vq = g.qubitId(0, 0, Shore::Vertical, 0);
    const int hq = g.qubitId(0, 0, Shore::Horizontal, 2);
    e.chain(0).push_back(vq);
    e.chain(1).push_back(hq);
    EXPECT_TRUE(e.isValid(g, {{0, 1}}));
    const auto coupler = e.findCoupler(g, 0, 1);
    ASSERT_TRUE(coupler.has_value());
    EXPECT_EQ(coupler->first, vq);
    EXPECT_EQ(coupler->second, hq);
}

TEST(Embedding, QubitOutOfRangeInvalid)
{
    const Topology g(2, 2, 4);
    Embedding e(1);
    e.chain(0).push_back(g.numQubits());
    EXPECT_FALSE(e.isValid(g, {}));
}

TEST(Embedding, ChainStats)
{
    Embedding e(3);
    e.chain(0) = {0};
    e.chain(1) = {1, 2};
    e.chain(2) = {3, 4, 5};
    EXPECT_EQ(e.totalQubits(), 6);
    EXPECT_DOUBLE_EQ(e.averageChainLength(), 2.0);
    EXPECT_EQ(e.maxChainLength(), 3);
}

TEST(Embedding, AddChainGrows)
{
    Embedding e;
    EXPECT_EQ(e.addChain(), 0);
    EXPECT_EQ(e.addChain(), 1);
    EXPECT_EQ(e.numNodes(), 2);
}

} // namespace
} // namespace hyqsat::embed
