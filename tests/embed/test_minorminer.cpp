#include <gtest/gtest.h>

#include "embed/minorminer.h"
#include "qubo/encoder.h"
#include "tests/sat/helpers.h"

namespace hyqsat::embed {
namespace {

using topology::Topology;
using sat::mkLit;

TEST(Minorminer, EmbedsATriangle)
{
    const Topology g(2, 2, 4);
    MinorminerEmbedder embedder(g);
    const auto r = embedder.embed(3, {{0, 1}, {1, 2}, {0, 2}});
    ASSERT_TRUE(r.success);
    std::string why;
    EXPECT_TRUE(
        r.embedding.isValid(g, {{0, 1}, {1, 2}, {0, 2}}, &why))
        << why;
}

TEST(Minorminer, EmbedsK5WithChains)
{
    // K5 is not a subgraph of Chimera: chains are mandatory.
    const Topology g(3, 3, 4);
    MinorminerEmbedder embedder(g);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < 5; ++i)
        for (int j = i + 1; j < 5; ++j)
            edges.emplace_back(i, j);
    const auto r = embedder.embed(5, edges);
    ASSERT_TRUE(r.success);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, edges, &why)) << why;
    EXPECT_GT(r.embedding.maxChainLength(), 1);
}

TEST(Minorminer, FailsWhenProblemTooLarge)
{
    // 40-node complete graph cannot fit a single Chimera cell pair.
    const Topology g(1, 1, 4);
    MinorminerOptions opts;
    opts.max_passes = 4;
    MinorminerEmbedder embedder(g, opts);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < 40; ++i)
        for (int j = i + 1; j < 40; ++j)
            edges.emplace_back(i, j);
    const auto r = embedder.embed(40, edges);
    EXPECT_FALSE(r.success);
}

TEST(Minorminer, EmbedsEncodedThreeSatProblems)
{
    const Topology g(8, 8, 4);
    Rng rng(11);
    for (int round = 0; round < 3; ++round) {
        const auto cnf = sat::testing::randomCnf(12, 20, 3, rng);
        const auto ep = qubo::encodeClauses(cnf.clauses());
        MinorminerOptions opts;
        opts.seed = 100 + round;
        MinorminerEmbedder embedder(g, opts);
        const auto r = embedder.embed(ep.numNodes(), ep.edges());
        ASSERT_TRUE(r.success) << "round " << round;
        std::string why;
        EXPECT_TRUE(r.embedding.isValid(g, ep.edges(), &why)) << why;
    }
}

TEST(Minorminer, IsolatedNodesGetChains)
{
    const Topology g(2, 2, 4);
    MinorminerEmbedder embedder(g);
    const auto r = embedder.embed(4, {});
    ASSERT_TRUE(r.success);
    for (int n = 0; n < 4; ++n)
        EXPECT_FALSE(r.embedding.chain(n).empty());
    EXPECT_TRUE(r.embedding.isValid(g, {}));
}

TEST(Minorminer, DeterministicPerSeed)
{
    const Topology g(4, 4, 4);
    const std::vector<std::pair<int, int>> edges{
        {0, 1}, {1, 2}, {2, 3}, {3, 0}};
    MinorminerOptions opts;
    opts.seed = 77;
    const auto a = MinorminerEmbedder(g, opts).embed(4, edges);
    const auto b = MinorminerEmbedder(g, opts).embed(4, edges);
    ASSERT_EQ(a.success, b.success);
    ASSERT_TRUE(a.success);
    for (int n = 0; n < 4; ++n)
        EXPECT_EQ(a.embedding.chain(n), b.embedding.chain(n));
}

TEST(Minorminer, SlowerThanHyQsatScheme)
{
    // Not a strict timing assertion (CI noise), just sanity: the
    // iterative scheme takes measurable time on a real problem.
    const auto g = Topology::dwave2000q();
    Rng rng(13);
    const auto cnf = sat::testing::randomCnf(30, 60, 3, rng);
    const auto ep = qubo::encodeClauses(cnf.clauses());
    MinorminerEmbedder embedder(g);
    const auto r = embedder.embed(ep.numNodes(), ep.edges());
    EXPECT_TRUE(r.success);
    EXPECT_GT(r.seconds, 0.0);
}

} // namespace
} // namespace hyqsat::embed
