#include <gtest/gtest.h>

#include "embed/place_route.h"
#include "qubo/encoder.h"
#include "tests/sat/helpers.h"

namespace hyqsat::embed {
namespace {

using topology::Topology;

TEST(PlaceRoute, EmbedsATriangle)
{
    const Topology g(2, 2, 4);
    PlaceRouteEmbedder embedder(g);
    const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}, {0, 2}};
    const auto r = embedder.embed(3, edges);
    ASSERT_TRUE(r.success);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, edges, &why)) << why;
}

TEST(PlaceRoute, EmbedsAPathGraph)
{
    const Topology g(3, 3, 4);
    PlaceRouteEmbedder embedder(g);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < 8; ++i)
        edges.emplace_back(i, i + 1);
    const auto r = embedder.embed(8, edges);
    ASSERT_TRUE(r.success);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, edges, &why)) << why;
}

TEST(PlaceRoute, EmbedsEncodedThreeSat)
{
    const Topology g(8, 8, 4);
    Rng rng(17);
    const auto cnf = sat::testing::randomCnf(10, 15, 3, rng);
    const auto ep = qubo::encodeClauses(cnf.clauses());
    PlaceRouteEmbedder embedder(g);
    const auto r = embedder.embed(ep.numNodes(), ep.edges());
    ASSERT_TRUE(r.success);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, ep.edges(), &why)) << why;
}

TEST(PlaceRoute, FailsGracefullyWhenFull)
{
    const Topology g(1, 1, 2); // 4 qubits
    PlaceRouteEmbedder embedder(g);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < 6; ++i)
        for (int j = i + 1; j < 6; ++j)
            edges.emplace_back(i, j);
    const auto r = embedder.embed(6, edges);
    EXPECT_FALSE(r.success);
}

TEST(PlaceRoute, IsolatedNodesPlaced)
{
    const Topology g(2, 2, 4);
    PlaceRouteEmbedder embedder(g);
    const auto r = embedder.embed(5, {});
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.embedding.isValid(g, {}));
}

TEST(PlaceRoute, DeterministicPerSeed)
{
    const Topology g(4, 4, 4);
    const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
    PlaceRouteOptions opts;
    opts.seed = 5;
    const auto a = PlaceRouteEmbedder(g, opts).embed(3, edges);
    const auto b = PlaceRouteEmbedder(g, opts).embed(3, edges);
    ASSERT_TRUE(a.success && b.success);
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(a.embedding.chain(n), b.embedding.chain(n));
}

TEST(PlaceRoute, LowerCapacityThanMinorminerStyleExpectation)
{
    // P&R saturates earlier on dense problems: a K8 on a 2x2 chip
    // should fail while remaining well-formed.
    const Topology g(2, 2, 2);
    PlaceRouteEmbedder embedder(g);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < 8; ++i)
        for (int j = i + 1; j < 8; ++j)
            edges.emplace_back(i, j);
    const auto r = embedder.embed(8, edges);
    EXPECT_FALSE(r.success);
    EXPECT_GE(r.seconds, 0.0);
}

} // namespace
} // namespace hyqsat::embed
