#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "qubo/encoder.h"
#include "sat/cnf.h"
#include "tests/sat/helpers.h"

namespace hyqsat::qubo {
namespace {

using sat::Lit;
using sat::LitVec;
using sat::mkLit;

/**
 * Minimum of a model over the auxiliary nodes with SAT-variable
 * values fixed. Returns the best (lowest) energy.
 */
double
minOverAux(const EncodedProblem &ep, const QuboModel &model,
           const std::vector<bool> &var_bits_by_node)
{
    std::vector<int> aux_nodes;
    for (int n = 0; n < ep.numNodes(); ++n)
        if (ep.nodes[n].is_aux)
            aux_nodes.push_back(n);

    std::vector<bool> bits = var_bits_by_node;
    double best = std::numeric_limits<double>::infinity();
    const std::uint64_t total = 1ull << aux_nodes.size();
    for (std::uint64_t pattern = 0; pattern < total; ++pattern) {
        for (std::size_t i = 0; i < aux_nodes.size(); ++i)
            bits[aux_nodes[i]] = (pattern >> i) & 1;
        best = std::min(best, model.energy(bits));
    }
    return best;
}

int
countViolated(const EncodedProblem &ep, const std::vector<bool> &bits)
{
    int violated = 0;
    for (const auto &clause : ep.clauses) {
        if (clause.empty())
            continue;
        bool sat = false;
        for (Lit p : clause)
            if (bits[ep.var_node.at(p.var())] != p.sign())
                sat = true;
        violated += !sat;
    }
    return violated;
}

TEST(Encoder, SingleThreeClauseNodeLayout)
{
    const std::vector<LitVec> clauses{{mkLit(0), mkLit(1), mkLit(2)}};
    const auto ep = encodeClauses(clauses);
    EXPECT_EQ(ep.numNodes(), 4); // 3 vars + 1 aux
    EXPECT_EQ(ep.clause_aux[0], 3);
    EXPECT_FALSE(ep.nodes[0].is_aux);
    EXPECT_TRUE(ep.nodes[3].is_aux);
    EXPECT_EQ(ep.nodes[3].clause, 0);
    EXPECT_EQ(ep.sub_clauses.size(), 2u);
}

TEST(Encoder, PaperExampleEquation8UnitObjective)
{
    // c1 = x1 v x2 v x3 (Eq. 8): H = x1 + x2 - x3 + x1x2 - 2a x1
    //                                - 2a x2 + a x3 + 1, d* = 2.
    const std::vector<LitVec> clauses{{mkLit(0), mkLit(1), mkLit(2)}};
    const auto ep = encodeClauses(clauses);
    const QuboModel &h = ep.unit_objective;
    const int a = ep.clause_aux[0];
    EXPECT_DOUBLE_EQ(h.offset(), 1.0);
    EXPECT_DOUBLE_EQ(h.linear(0), 1.0);
    EXPECT_DOUBLE_EQ(h.linear(1), 1.0);
    EXPECT_DOUBLE_EQ(h.linear(2), -1.0);
    EXPECT_DOUBLE_EQ(h.linear(a), 0.0);
    EXPECT_DOUBLE_EQ(h.quadratic(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(h.quadratic(a, 0), -2.0);
    EXPECT_DOUBLE_EQ(h.quadratic(a, 1), -2.0);
    EXPECT_DOUBLE_EQ(h.quadratic(a, 2), 1.0);
    EXPECT_DOUBLE_EQ(h.normalizationDivisor(), 2.0);
}

TEST(Encoder, PaperExampleEquation9AdjustedObjective)
{
    // After adjustment (Eq. 9): alpha = (1, 2) and
    // H' = x1 + x2 - 2x3 - a + x1x2 - 2a x1 - 2a x2 + 2a x3 + 2.
    const std::vector<LitVec> clauses{{mkLit(0), mkLit(1), mkLit(2)}};
    const auto ep = encodeClauses(clauses);
    ASSERT_EQ(ep.sub_clauses.size(), 2u);
    EXPECT_DOUBLE_EQ(ep.sub_clauses[0].d, 2.0);
    EXPECT_DOUBLE_EQ(ep.sub_clauses[1].d, 1.0);
    EXPECT_DOUBLE_EQ(ep.sub_clauses[0].alpha, 1.0);
    EXPECT_DOUBLE_EQ(ep.sub_clauses[1].alpha, 2.0);

    const QuboModel &h = ep.objective;
    const int a = ep.clause_aux[0];
    EXPECT_DOUBLE_EQ(h.offset(), 2.0);
    EXPECT_DOUBLE_EQ(h.linear(0), 1.0);
    EXPECT_DOUBLE_EQ(h.linear(1), 1.0);
    EXPECT_DOUBLE_EQ(h.linear(2), -2.0);
    EXPECT_DOUBLE_EQ(h.linear(a), -1.0);
    EXPECT_DOUBLE_EQ(h.quadratic(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(h.quadratic(a, 0), -2.0);
    EXPECT_DOUBLE_EQ(h.quadratic(a, 1), -2.0);
    EXPECT_DOUBLE_EQ(h.quadratic(a, 2), 2.0);
    // d'* stays d* (the paper's claim for this example).
    EXPECT_DOUBLE_EQ(ep.d_star, 2.0);
}

TEST(Encoder, UnitClauseTruthTable)
{
    for (bool negated : {false, true}) {
        const std::vector<LitVec> clauses{{mkLit(0, negated)}};
        const auto ep = encodeClauses(clauses);
        ASSERT_EQ(ep.numNodes(), 1);
        // Penalty 0 when the literal is true, 1 when false.
        EXPECT_DOUBLE_EQ(ep.unit_objective.energy({!negated}), 0.0);
        EXPECT_DOUBLE_EQ(ep.unit_objective.energy({negated}), 1.0);
    }
}

TEST(Encoder, PairClauseTruthTable)
{
    for (int signs = 0; signs < 4; ++signs) {
        const bool s0 = signs & 1, s1 = signs & 2;
        const std::vector<LitVec> clauses{{mkLit(0, s0), mkLit(1, s1)}};
        const auto ep = encodeClauses(clauses);
        ASSERT_EQ(ep.numNodes(), 2);
        for (int bits = 0; bits < 4; ++bits) {
            const std::vector<bool> x{static_cast<bool>(bits & 1),
                                      static_cast<bool>(bits & 2)};
            const bool sat = (x[0] != s0) || (x[1] != s1);
            EXPECT_DOUBLE_EQ(ep.unit_objective.energy(x), sat ? 0.0 : 1.0)
                << "signs " << signs << " bits " << bits;
        }
    }
}

TEST(Encoder, ThreeClauseMinOverAuxIsViolationIndicator)
{
    // For every sign pattern of a 3-literal clause and every variable
    // assignment: min over the auxiliary of the unit objective is 0
    // when the clause is satisfied and exactly 1 when violated.
    for (int signs = 0; signs < 8; ++signs) {
        const std::vector<LitVec> clauses{{mkLit(0, signs & 1),
                                           mkLit(1, signs & 2),
                                           mkLit(2, signs & 4)}};
        const auto ep = encodeClauses(clauses);
        for (int bits = 0; bits < 8; ++bits) {
            std::vector<bool> node_bits(ep.numNodes(), false);
            for (int v = 0; v < 3; ++v)
                node_bits[ep.var_node.at(v)] = (bits >> v) & 1;
            const double best =
                minOverAux(ep, ep.unit_objective, node_bits);
            const int violated = countViolated(ep, node_bits);
            EXPECT_NEAR(best, violated, 1e-12)
                << "signs " << signs << " bits " << bits;
        }
    }
}

TEST(Encoder, MultiClauseMinOverAuxCountsViolations)
{
    hyqsat::Rng rng(13);
    for (int round = 0; round < 15; ++round) {
        const sat::Cnf cnf = sat::testing::randomCnf(5, 6, 3, rng);
        const auto ep = encodeClauses(cnf.clauses());
        std::vector<int> var_nodes;
        for (const auto &[v, n] : ep.var_node)
            var_nodes.push_back(n);
        for (int bits = 0; bits < (1 << var_nodes.size()); ++bits) {
            std::vector<bool> node_bits(ep.numNodes(), false);
            for (std::size_t i = 0; i < var_nodes.size(); ++i)
                node_bits[var_nodes[i]] = (bits >> i) & 1;
            const double best =
                minOverAux(ep, ep.unit_objective, node_bits);
            EXPECT_NEAR(best, countViolated(ep, node_bits), 1e-9);
        }
    }
}

TEST(Encoder, WeightedObjectiveZeroIffSatisfied)
{
    hyqsat::Rng rng(17);
    for (int round = 0; round < 10; ++round) {
        const sat::Cnf cnf = sat::testing::randomCnf(5, 7, 3, rng);
        const auto ep = encodeClauses(cnf.clauses());
        const int n = ep.numNodes();
        ASSERT_LE(n, 20);
        for (int bits = 0; bits < (1 << n); ++bits) {
            std::vector<bool> node_bits(n);
            for (int i = 0; i < n; ++i)
                node_bits[i] = (bits >> i) & 1;
            const double e = ep.objective.energy(node_bits);
            EXPECT_GE(e, -1e-9);
            if (e < 1e-9) {
                EXPECT_TRUE(ep.clausesSatisfied(node_bits));
                EXPECT_NEAR(ep.unit_objective.energy(node_bits), 0.0,
                            1e-9);
            }
        }
    }
}

TEST(Encoder, AlphasNeverBelowOne)
{
    hyqsat::Rng rng(19);
    const sat::Cnf cnf = sat::testing::randomCnf(8, 12, 3, rng);
    const auto ep = encodeClauses(cnf.clauses());
    for (const auto &sc : ep.sub_clauses)
        EXPECT_GE(sc.alpha, 1.0 - 1e-12);
}

TEST(Encoder, AdjustmentDisabledKeepsAlphaOne)
{
    hyqsat::Rng rng(23);
    const sat::Cnf cnf = sat::testing::randomCnf(6, 9, 3, rng);
    EncoderOptions opts;
    opts.adjust_coefficients = false;
    const auto ep = encodeClauses(cnf.clauses(), opts);
    for (const auto &sc : ep.sub_clauses)
        EXPECT_DOUBLE_EQ(sc.alpha, 1.0);
}

TEST(Encoder, NormalizedWithinHardwareRanges)
{
    hyqsat::Rng rng(29);
    const sat::Cnf cnf = sat::testing::randomCnf(10, 20, 3, rng);
    const auto ep = encodeClauses(cnf.clauses());
    EXPECT_LE(ep.normalized.maxAbsLinear(), 2.0 + 1e-9);
    EXPECT_LE(ep.normalized.maxAbsQuadratic(), 1.0 + 1e-9);
}

TEST(Encoder, TautologyDropped)
{
    const std::vector<LitVec> clauses{
        {mkLit(0), mkLit(0, true), mkLit(1)}, {mkLit(1), mkLit(2)}};
    const auto ep = encodeClauses(clauses);
    EXPECT_TRUE(ep.clauses[0].empty());
    EXPECT_EQ(ep.clause_aux[0], -1);
    // Only the second clause contributes nodes.
    EXPECT_EQ(ep.numNodes(), 2);
}

TEST(Encoder, DuplicateLiteralsCollapse)
{
    const std::vector<LitVec> clauses{{mkLit(0), mkLit(0), mkLit(1)}};
    const auto ep = encodeClauses(clauses);
    EXPECT_EQ(ep.clauses[0].size(), 2u); // became a 2-literal clause
    EXPECT_EQ(ep.clause_aux[0], -1);     // no auxiliary needed
}

TEST(Encoder, EdgesMatchProblemGraphStructure)
{
    const std::vector<LitVec> clauses{{mkLit(0), mkLit(1), mkLit(2)}};
    const auto ep = encodeClauses(clauses);
    const auto edges = ep.edges();
    // (x1,x2), (a,x1), (a,x2), (a,x3).
    EXPECT_EQ(edges.size(), 4u);
}

TEST(Encoder, DecodeMapsNodesBackToVariables)
{
    const std::vector<LitVec> clauses{{mkLit(4), mkLit(7), mkLit(9)}};
    const auto ep = encodeClauses(clauses);
    std::vector<bool> bits(ep.numNodes(), false);
    bits[ep.var_node.at(7)] = true;
    const auto assignment = ep.decode(bits);
    EXPECT_TRUE(assignment.at(7));
    EXPECT_FALSE(assignment.at(4));
    EXPECT_FALSE(assignment.at(9));
    EXPECT_EQ(assignment.size(), 3u);
}

TEST(Encoder, SharedVariablesReuseNodes)
{
    const std::vector<LitVec> clauses{
        {mkLit(0), mkLit(1), mkLit(2)},
        {mkLit(0), mkLit(3), mkLit(4)},
    };
    const auto ep = encodeClauses(clauses);
    // 5 vars + 2 aux.
    EXPECT_EQ(ep.numNodes(), 7);
}

TEST(Encoder, PenaltyTermsFollowHashMapOrder)
{
    // Each sub-clause's quadratic terms must sit in the order a
    // std::unordered_map holding them iterates (Eq. 4 inserts them in
    // the order listed below): the objective maps are built by
    // inserting them in that order, and the objective maps' own
    // iteration order is part of the encoder's output.
    hyqsat::Rng rng(31);
    for (int round = 0; round < 40; ++round) {
        const sat::Cnf cnf = sat::testing::randomCnf(
            60 + round * 40, 200, 1 + round % 3, rng);
        const auto ep = encodeClauses(cnf.clauses());
        for (const auto &sc : ep.sub_clauses) {
            const LitVec &clause = ep.clauses[sc.clause];
            std::vector<int> n;
            for (Lit p : clause)
                n.push_back(ep.var_node.at(p.var()));
            const int aux = ep.clause_aux[sc.clause];
            std::vector<PairKey> inserted;
            if (clause.size() == 3 && sc.sub == 0)
                inserted = {{aux, n[0]}, {aux, n[1]}, {n[0], n[1]}};
            else if (clause.size() == 3)
                inserted = {{aux, n[2]}};
            else if (clause.size() == 2)
                inserted = {{n[0], n[1]}};
            std::unordered_map<PairKey, double, PairKeyHash> map;
            for (const PairKey &key : inserted)
                map[key] = 1.0;
            ASSERT_EQ(sc.penalty.num_quadratic,
                      static_cast<int>(inserted.size()));
            int k = 0;
            for (const auto &[key, c] : map)
                EXPECT_EQ(sc.penalty.quadratic[k++].key, key);
        }
    }
}

} // namespace
} // namespace hyqsat::qubo
