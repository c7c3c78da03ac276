/**
 * @file
 * Parameterized property sweep for the §IV-B embedder: for every
 * grid shape and queue size in the sweep, the embedded prefix must
 * produce a valid minor embedding (disjoint connected chains
 * covering every problem edge), monotone hardware usage, and an
 * encoding whose clause count equals the reported prefix.
 */

#include <gtest/gtest.h>

#include "embed/hyqsat_embedder.h"
#include "tests/sat/helpers.h"

namespace hyqsat::embed {
namespace {

struct SweepParam
{
    int rows;
    int cols;
    int shore;
    int num_vars;
    int num_clauses;
    std::uint64_t seed;
};

std::string
paramName(const ::testing::TestParamInfo<SweepParam> &info)
{
    const auto &p = info.param;
    return "g" + std::to_string(p.rows) + "x" +
           std::to_string(p.cols) + "s" + std::to_string(p.shore) +
           "_v" + std::to_string(p.num_vars) + "_c" +
           std::to_string(p.num_clauses) + "_r" +
           std::to_string(p.seed);
}

class EmbedderSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    QueueEmbedResult
    run()
    {
        const auto &p = GetParam();
        graph_ = std::make_unique<topology::Topology>(
            p.rows, p.cols, p.shore);
        Rng rng(p.seed);
        const auto cnf = sat::testing::randomCnf(
            p.num_vars, p.num_clauses, 3, rng);
        const std::vector<sat::LitVec> queue(cnf.clauses().begin(),
                                             cnf.clauses().end());
        HyQsatEmbedder embedder(*graph_);
        return embedder.embedQueue(queue);
    }

    std::unique_ptr<topology::Topology> graph_;
};

TEST_P(EmbedderSweep, PrefixEmbeddingIsValid)
{
    const auto r = run();
    ASSERT_GT(r.embedded_clauses, 0);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(*graph_, r.problem.edges(), &why))
        << why;
}

TEST_P(EmbedderSweep, EncodingMatchesPrefix)
{
    const auto r = run();
    EXPECT_EQ(static_cast<int>(r.problem.clauses.size()),
              r.embedded_clauses);
    EXPECT_EQ(r.embedding.numNodes(), r.problem.numNodes());
}

TEST_P(EmbedderSweep, ChainsFitTheChip)
{
    const auto r = run();
    EXPECT_LE(r.embedding.totalQubits(), graph_->numQubits());
    // A chain is one vertical span (<= rows qubits) plus one
    // horizontal segment (<= cols qubits) per owned connection
    // requirement; 'shore' bounds the requirement rows per line.
    EXPECT_LE(r.embedding.maxChainLength(),
              graph_->rows() + graph_->shore() * graph_->cols());
}

TEST_P(EmbedderSweep, DeterministicAcrossRuns)
{
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.embedded_clauses, b.embedded_clauses);
    for (int n = 0; n < a.embedding.numNodes(); ++n)
        EXPECT_EQ(a.embedding.chain(n), b.embedding.chain(n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EmbedderSweep,
    ::testing::Values(
        SweepParam{2, 2, 2, 6, 12, 1},
        SweepParam{4, 4, 4, 20, 60, 2},
        SweepParam{8, 8, 4, 40, 120, 3},
        SweepParam{16, 16, 4, 64, 250, 4},
        SweepParam{16, 16, 4, 150, 645, 5},
        SweepParam{8, 16, 4, 50, 200, 6},  // non-square
        SweepParam{16, 8, 4, 50, 200, 7},  // transposed
        SweepParam{12, 12, 2, 30, 100, 8}, // narrow shore
        SweepParam{6, 6, 6, 30, 100, 9},   // wide shore
        SweepParam{24, 24, 4, 150, 645, 10},
        SweepParam{32, 32, 4, 250, 1065, 11}),
    paramName);

} // namespace
} // namespace hyqsat::embed
