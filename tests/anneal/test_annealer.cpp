#include <gtest/gtest.h>

#include "anneal/annealer.h"
#include "embed/hyqsat_embedder.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"
#include "util/stats.h"

namespace hyqsat::anneal {
namespace {

using sat::LitVec;
using sat::mkLit;

embed::QueueEmbedResult
embedFixture(const topology::Topology &g,
             const std::vector<LitVec> &clauses)
{
    embed::HyQsatEmbedder embedder(g);
    // Note: large queues may embed only a prefix; tests that need
    // full coverage use small clause sets.
    return embedder.embedQueue(clauses);
}

TEST(Annealer, NoiseFreeSolvesSingleClause)
{
    const topology::Topology g(4, 4, 4);
    const auto fx = embedFixture(
        g, {{mkLit(0), mkLit(1), mkLit(2)}});
    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::noiseFree();
    opts.greedy_finish = true;
    QuantumAnnealer qa(g, opts);
    const auto s = qa.sample(fx.problem, fx.embedding);
    EXPECT_DOUBLE_EQ(s.clause_energy, 0.0);
    EXPECT_EQ(s.chain_breaks, 0);
    EXPECT_TRUE(fx.problem.clausesSatisfied(s.node_bits));
}

TEST(Annealer, NoiseFreeSolvesSatisfiableSets)
{
    const auto g = topology::Topology::dwave2000q();
    Rng rng(3);
    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::noiseFree();
    opts.greedy_finish = true;
    opts.attempts = 4;
    QuantumAnnealer qa(g, opts);
    for (int round = 0; round < 5; ++round) {
        // Under-constrained: satisfiable with high probability, and
        // verified against brute force before the expectation.
        const auto cnf = sat::testing::randomCnf(18, 40, 3, rng);
        if (!sat::bruteForceSolve(cnf).satisfiable)
            continue;
        const std::vector<LitVec> clauses(cnf.clauses().begin(),
                                          cnf.clauses().end());
        const auto fx = embedFixture(g, clauses);
        const auto s = qa.sample(fx.problem, fx.embedding);
        EXPECT_DOUBLE_EQ(s.clause_energy, 0.0) << "round " << round;
    }
}

TEST(Annealer, UnsatisfiableSetHasPositiveEnergy)
{
    const topology::Topology g(4, 4, 4);
    const auto fx = embedFixture(
        g, {{mkLit(0)}, {mkLit(0, true)}});
    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::noiseFree();
    opts.greedy_finish = true;
    QuantumAnnealer qa(g, opts);
    const auto s = qa.sample(fx.problem, fx.embedding);
    EXPECT_GE(s.clause_energy, 1.0);
}

TEST(Annealer, LogicalSamplingAgreesWithEmbedded)
{
    const auto g = topology::Topology::dwave2000q();
    Rng rng(5);
    const auto cnf = sat::testing::randomCnf(15, 30, 3, rng);
    if (!sat::bruteForceSolve(cnf).satisfiable)
        GTEST_SKIP() << "fixture instance unsatisfiable";
    const std::vector<LitVec> clauses(cnf.clauses().begin(),
                                      cnf.clauses().end());
    const auto fx = embedFixture(g, clauses);
    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::noiseFree();
    opts.greedy_finish = true;
    QuantumAnnealer qa(g, opts);
    EXPECT_DOUBLE_EQ(qa.sampleLogical(fx.problem).clause_energy, 0.0);
    EXPECT_DOUBLE_EQ(
        qa.sample(fx.problem, fx.embedding).clause_energy, 0.0);
}

TEST(Annealer, ReadoutNoiseRaisesEnergy)
{
    const auto g = topology::Topology::dwave2000q();
    Rng rng(7);
    const auto cnf = sat::testing::randomCnf(20, 60, 3, rng);
    const std::vector<LitVec> clauses(cnf.clauses().begin(),
                                      cnf.clauses().end());
    const auto fx = embedFixture(g, clauses);

    QuantumAnnealer::Options clean;
    clean.noise = NoiseModel::noiseFree();
    clean.greedy_finish = true;
    QuantumAnnealer qa_clean(g, clean);

    QuantumAnnealer::Options noisy = clean;
    noisy.noise.readout_flip_prob = 0.2;
    noisy.greedy_finish = false;
    QuantumAnnealer qa_noisy(g, noisy);

    double clean_sum = 0, noisy_sum = 0;
    for (int i = 0; i < 10; ++i) {
        clean_sum += qa_clean.sample(fx.problem, fx.embedding)
                         .clause_energy;
        noisy_sum += qa_noisy.sample(fx.problem, fx.embedding)
                         .clause_energy;
    }
    EXPECT_GT(noisy_sum, clean_sum);
}

TEST(Annealer, CoefficientNoisePerturbsResults)
{
    const auto g = topology::Topology::dwave2000q();
    Rng rng(9);
    const auto cnf = sat::testing::randomCnf(25, 100, 3, rng);
    const std::vector<LitVec> clauses(cnf.clauses().begin(),
                                      cnf.clauses().end());
    const auto fx = embedFixture(g, clauses);

    QuantumAnnealer::Options noisy;
    noisy.noise.coefficient_sigma = 0.2; // exaggerated
    noisy.noise.sweeps = 32;
    QuantumAnnealer qa(g, noisy);
    OnlineStats energies;
    for (int i = 0; i < 10; ++i)
        energies.add(qa.sample(fx.problem, fx.embedding).clause_energy);
    // Strong control noise should produce at least some violations.
    EXPECT_GT(energies.max(), 0.0);
}

TEST(Annealer, DeviceTimeFollowsTimingModel)
{
    const topology::Topology g(2, 2, 4);
    QuantumAnnealer::Options opts;
    opts.timing.anneal_us = 20;
    opts.timing.readout_us = 110;
    QuantumAnnealer qa(g, opts);
    const auto fx = embedFixture(g, {{mkLit(0), mkLit(1)}});
    const auto s = qa.sample(fx.problem, fx.embedding);
    EXPECT_DOUBLE_EQ(s.device_time_us, 130.0);
}

TEST(Annealer, EmptyProblemIsTrivial)
{
    const topology::Topology g(2, 2, 4);
    QuantumAnnealer qa(g, {});
    const qubo::EncodedProblem empty;
    const embed::Embedding no_chains;
    const auto s = qa.sample(empty, no_chains);
    EXPECT_DOUBLE_EQ(s.clause_energy, 0.0);
    EXPECT_TRUE(s.node_bits.empty());
}

TEST(Annealer, TimingModelArithmetic)
{
    TimingModel t;
    t.anneal_us = 10;
    t.readout_us = 110;
    t.delay_us = 20;
    // The paper's Fig. 1: (10+110)us * 60 + 20us * 59 = 8380us.
    EXPECT_DOUBLE_EQ(t.sampleTimeUs(60), 8380.0);
    EXPECT_DOUBLE_EQ(t.sampleTimeUs(1), 120.0);
    EXPECT_DOUBLE_EQ(t.sampleTimeUs(0), 0.0);
}

} // namespace
} // namespace hyqsat::anneal
