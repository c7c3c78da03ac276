#include <gtest/gtest.h>

#include "embed/hyqsat_embedder.h"
#include "tests/sat/helpers.h"

namespace hyqsat::embed {
namespace {

using topology::Topology;
using sat::LitVec;
using sat::mkLit;

TEST(HyQsatEmbedder, SingleClauseEmbedsAndValidates)
{
    const Topology g(4, 4, 4);
    HyQsatEmbedder embedder(g);
    const std::vector<LitVec> queue{{mkLit(0), mkLit(1), mkLit(2)}};
    const auto r = embedder.embedQueue(queue);
    EXPECT_TRUE(r.all_embedded);
    EXPECT_EQ(r.embedded_clauses, 1);
    ASSERT_EQ(r.problem.numNodes(), 4);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, r.problem.edges(), &why)) << why;
}

TEST(HyQsatEmbedder, TwoLiteralClause)
{
    const Topology g(2, 2, 4);
    HyQsatEmbedder embedder(g);
    const std::vector<LitVec> queue{{mkLit(0), mkLit(1, true)}};
    const auto r = embedder.embedQueue(queue);
    EXPECT_TRUE(r.all_embedded);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, r.problem.edges(), &why)) << why;
}

TEST(HyQsatEmbedder, UnitClauseUsesOneChain)
{
    const Topology g(2, 2, 4);
    HyQsatEmbedder embedder(g);
    const std::vector<LitVec> queue{{mkLit(5)}};
    const auto r = embedder.embedQueue(queue);
    EXPECT_TRUE(r.all_embedded);
    EXPECT_EQ(r.problem.numNodes(), 1);
    EXPECT_TRUE(r.embedding.isValid(g, r.problem.edges()));
}

TEST(HyQsatEmbedder, TautologyConsumesNoHardware)
{
    const Topology g(2, 2, 4);
    HyQsatEmbedder embedder(g);
    const std::vector<LitVec> tautologies(
        50, LitVec{mkLit(0), mkLit(0, true), mkLit(1)});
    const auto r = embedder.embedQueue(tautologies);
    EXPECT_TRUE(r.all_embedded);
    EXPECT_EQ(r.embedded_clauses, 50);
    EXPECT_EQ(r.problem.numNodes(), 0);
}

TEST(HyQsatEmbedder, SharedVariableClausesValidate)
{
    const Topology g(4, 4, 4);
    HyQsatEmbedder embedder(g);
    // The paper's Fig. 6 queue shape: clauses chained on x0.
    const std::vector<LitVec> queue{
        {mkLit(0), mkLit(1), mkLit(2)},
        {mkLit(0), mkLit(4, true), mkLit(6)},
        {mkLit(0, true), mkLit(5, true)},
    };
    const auto r = embedder.embedQueue(queue);
    EXPECT_TRUE(r.all_embedded);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, r.problem.edges(), &why)) << why;
}

TEST(HyQsatEmbedder, PrefixSemanticsOnOverflow)
{
    // A tiny chip cannot host many distinct variables; the embedder
    // must embed a strict prefix and stay valid.
    const Topology g(2, 2, 2); // 4 vertical lines only
    HyQsatEmbedder embedder(g);
    std::vector<LitVec> queue;
    for (int i = 0; i < 10; ++i)
        queue.push_back(
            {mkLit(3 * i), mkLit(3 * i + 1), mkLit(3 * i + 2)});
    const auto r = embedder.embedQueue(queue);
    EXPECT_FALSE(r.all_embedded);
    EXPECT_LT(r.embedded_clauses, 10);
    EXPECT_GE(r.embedded_clauses, 1);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, r.problem.edges(), &why)) << why;
}

TEST(HyQsatEmbedder, LargerChipEmbedsMoreClauses)
{
    Rng rng(7);
    const auto queue_cnf = sat::testing::randomCnf(60, 120, 3, rng);
    const std::vector<LitVec> queue(queue_cnf.clauses().begin(),
                                    queue_cnf.clauses().end());

    const Topology small(4, 4, 4);
    const Topology large(16, 16, 4);
    const auto rs = HyQsatEmbedder(small).embedQueue(queue);
    const auto rl = HyQsatEmbedder(large).embedQueue(queue);
    EXPECT_GE(rl.embedded_clauses, rs.embedded_clauses);
    EXPECT_GT(rl.embedded_clauses, 0);
    std::string why;
    EXPECT_TRUE(rl.embedding.isValid(large, rl.problem.edges(), &why))
        << why;
    EXPECT_TRUE(rs.embedding.isValid(small, rs.problem.edges(), &why))
        << why;
}

TEST(HyQsatEmbedder, RandomQueuesAlwaysValidOn2000q)
{
    const auto g = Topology::dwave2000q();
    Rng rng(21);
    for (int round = 0; round < 5; ++round) {
        const auto cnf =
            sat::testing::randomCnf(50 + 10 * round, 200, 3, rng);
        const std::vector<LitVec> queue(cnf.clauses().begin(),
                                        cnf.clauses().end());
        HyQsatEmbedder embedder(g);
        const auto r = embedder.embedQueue(queue);
        EXPECT_GT(r.embedded_clauses, 0);
        std::string why;
        ASSERT_TRUE(r.embedding.isValid(g, r.problem.edges(), &why))
            << "round " << round << ": " << why;
    }
}

TEST(HyQsatEmbedder, EmbeddingIsFast)
{
    const auto g = Topology::dwave2000q();
    Rng rng(23);
    const auto cnf = sat::testing::randomCnf(64, 250, 3, rng);
    const std::vector<LitVec> queue(cnf.clauses().begin(),
                                    cnf.clauses().end());
    HyQsatEmbedder embedder(g);
    const auto r = embedder.embedQueue(queue);
    // The paper reports ~15.7us; allow generous slack for CI noise
    // but stay orders of magnitude under Minorminer's seconds.
    EXPECT_LT(r.seconds, 0.05);
}

TEST(HyQsatEmbedder, ReuseSegmentsImprovesOrMatchesCapacity)
{
    const Topology g(8, 8, 4);
    Rng rng(29);
    const auto cnf = sat::testing::randomCnf(40, 150, 3, rng);
    const std::vector<LitVec> queue(cnf.clauses().begin(),
                                    cnf.clauses().end());

    HyQsatEmbedderOptions with;
    with.reuse_segments = true;
    HyQsatEmbedderOptions without;
    without.reuse_segments = false;
    const auto r_with = HyQsatEmbedder(g, with).embedQueue(queue);
    const auto r_without = HyQsatEmbedder(g, without).embedQueue(queue);
    EXPECT_GE(r_with.embedded_clauses, r_without.embedded_clauses);
    std::string why;
    EXPECT_TRUE(
        r_without.embedding.isValid(g, r_without.problem.edges(), &why))
        << why;
}

TEST(HyQsatEmbedder, AuxChainsLiveOnHorizontalLines)
{
    const Topology g(4, 4, 4);
    HyQsatEmbedder embedder(g);
    const std::vector<LitVec> queue{{mkLit(0), mkLit(1), mkLit(2)}};
    const auto r = embedder.embedQueue(queue);
    const int aux = r.problem.clause_aux[0];
    ASSERT_GE(aux, 0);
    for (int q : r.embedding.chain(aux)) {
        EXPECT_EQ(g.coord(q).shore, topology::Shore::Horizontal);
    }
}

namespace {

/** Short-clause queue over few variables: heavy segment churn, the
 * regime where the odd-coupler partner-line path fires. */
std::vector<LitVec>
congestedQueue(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<LitVec> queue;
    const int vars = 4 + static_cast<int>(rng.next() % 6);
    const int n = 10 + static_cast<int>(rng.next() % 30);
    for (int i = 0; i < n; ++i) {
        const int k = 2 + static_cast<int>(rng.next() % 2);
        LitVec c;
        for (int j = 0; j < k; ++j)
            c.push_back(mkLit(static_cast<int>(rng.next() % vars),
                              rng.next() & 1));
        queue.push_back(c);
    }
    return queue;
}

} // namespace

TEST(HyQsatEmbedder, OddCouplersNeverWorseOnPegasus)
{
    // A/B over congested queues on odd-coupler fabrics: with the
    // partner-line path enabled the embedding must stay valid, embed
    // at least as many clauses, and never lengthen the longest
    // chain. Seed 2202 is a known firing instance (kept first so the
    // path is exercised, not just vacuously equal).
    HyQsatEmbedderOptions on;
    on.odd_couplers = true;
    HyQsatEmbedderOptions off;
    off.odd_couplers = false;
    int fired = 0;
    for (const std::uint64_t seed :
         {2202ull, 138ull, 2306ull, 2167ull, 7ull, 77ull, 777ull}) {
        const auto queue = congestedQueue(seed);
        for (const Topology &g :
             {Topology::pegasus(3, 3, 2),
              Topology::pegasus(4, 4, 2),
              Topology::pegasus(6, 6, 4),
              Topology::zephyr(4, 4, 2)}) {
            const auto r_on = HyQsatEmbedder(g, on).embedQueue(queue);
            const auto r_off = HyQsatEmbedder(g, off).embedQueue(queue);
            std::string why;
            ASSERT_TRUE(
                r_on.embedding.isValid(g, r_on.problem.edges(), &why))
                << g.name() << " seed " << seed << ": " << why;
            EXPECT_GE(r_on.embedded_clauses, r_off.embedded_clauses)
                << g.name() << " seed " << seed;
            EXPECT_LE(r_on.embedding.maxChainLength(),
                      r_off.embedding.maxChainLength())
                << g.name() << " seed " << seed;
            if (r_on.embedding.chains() != r_off.embedding.chains())
                ++fired;
        }
    }
    EXPECT_GT(fired, 0)
        << "the odd-coupler path never fired; the A/B is vacuous";
}

TEST(HyQsatEmbedder, OddCouplerPathShortensKnownCongestedChains)
{
    // The frozen win instance: extension blocked on the owner's own
    // line, partner line free in the same cell row — the odd coupler
    // splices the segment in without a new crossing row, shortening
    // the longest chain.
    const auto queue = congestedQueue(2202);
    HyQsatEmbedderOptions on;
    on.odd_couplers = true;
    HyQsatEmbedderOptions off;
    off.odd_couplers = false;
    const Topology g = Topology::pegasus(3, 3, 2);
    const auto r_on = HyQsatEmbedder(g, on).embedQueue(queue);
    const auto r_off = HyQsatEmbedder(g, off).embedQueue(queue);
    EXPECT_EQ(r_on.embedded_clauses, r_off.embedded_clauses);
    EXPECT_LT(r_on.embedding.maxChainLength(),
              r_off.embedding.maxChainLength());
    EXPECT_LT(r_on.embedding.totalQubits(),
              r_off.embedding.totalQubits());
}

TEST(HyQsatEmbedder, OddCouplerOptionInertOnChimera)
{
    // Chimera has no odd couplers: the option must be a bit-identical
    // no-op there.
    HyQsatEmbedderOptions on;
    on.odd_couplers = true;
    HyQsatEmbedderOptions off;
    off.odd_couplers = false;
    for (const std::uint64_t seed : {2202ull, 138ull, 9ull}) {
        const auto queue = congestedQueue(seed);
        const Topology g(3, 3, 2);
        const auto r_on = HyQsatEmbedder(g, on).embedQueue(queue);
        const auto r_off = HyQsatEmbedder(g, off).embedQueue(queue);
        EXPECT_EQ(r_on.embedded_clauses, r_off.embedded_clauses);
        EXPECT_EQ(r_on.embedding.chains(), r_off.embedding.chains())
            << "seed " << seed;
    }
}

TEST(HyQsatEmbedder, RepeatedIdenticalClausesReuseCouplings)
{
    const Topology g(4, 4, 4);
    HyQsatEmbedder embedder(g);
    const std::vector<LitVec> queue{
        {mkLit(0), mkLit(1), mkLit(2)},
        {mkLit(0), mkLit(1), mkLit(2)},
        {mkLit(0), mkLit(1), mkLit(2)},
    };
    const auto r = embedder.embedQueue(queue);
    EXPECT_TRUE(r.all_embedded);
    std::string why;
    EXPECT_TRUE(r.embedding.isValid(g, r.problem.edges(), &why)) << why;
}

} // namespace
} // namespace hyqsat::embed
