#include <gtest/gtest.h>

#include "anneal/sampler.h"
#include "embed/hyqsat_embedder.h"
#include "tests/sat/helpers.h"

namespace hyqsat::anneal {
namespace {

using sat::LitVec;
using sat::mkLit;

embed::QueueEmbedResult
embedFixture(const topology::Topology &g,
             const std::vector<LitVec> &clauses)
{
    embed::HyQsatEmbedder embedder(g);
    return embedder.embedQueue(clauses);
}

SampleRequest
requestFixture(const topology::Topology &g, std::uint64_t seed = 21)
{
    Rng rng(seed);
    const auto cnf = sat::testing::randomCnf(15, 32, 3, rng);
    const std::vector<LitVec> clauses(cnf.clauses().begin(),
                                      cnf.clauses().end());
    const auto fx = embedFixture(g, clauses);
    SampleRequest request;
    request.problem =
        std::make_shared<qubo::EncodedProblem>(fx.problem);
    request.embedding =
        std::make_shared<embed::Embedding>(fx.embedding);
    return request;
}

QuantumAnnealer::Options
noiseFreeOptions()
{
    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::noiseFree();
    opts.greedy_finish = true;
    return opts;
}

TEST(Sampler, QaSamplerMatchesDirectAnnealerBitForBit)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);

    QuantumAnnealer direct(g, noiseFreeOptions());
    QaSampler via_interface(g, noiseFreeOptions());

    for (int i = 0; i < 3; ++i) {
        const auto a =
            direct.sample(*request.problem, *request.embedding);
        const auto b = via_interface.sample(request);
        EXPECT_EQ(a.node_bits, b.node_bits) << "sample " << i;
        EXPECT_DOUBLE_EQ(a.clause_energy, b.clause_energy);
        EXPECT_DOUBLE_EQ(a.physical_energy, b.physical_energy);
        EXPECT_DOUBLE_EQ(a.device_time_us, b.device_time_us);
    }
}

TEST(Sampler, QaSamplerHonorsLogicalRequests)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);

    QuantumAnnealer direct(g, noiseFreeOptions());
    QaSampler via_interface(g, noiseFreeOptions(), "logical");
    const auto a = direct.sampleLogical(*request.problem);
    const auto b = via_interface.sample(request);
    EXPECT_EQ(a.node_bits, b.node_bits);
    EXPECT_DOUBLE_EQ(a.clause_energy, b.clause_energy);
}

TEST(Sampler, SaDirectSamplerDeterministicPerSeed)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);

    SamplerSpec spec;
    spec.name = "sa";
    spec.annealer.seed = 99;
    const auto a = makeSampler(spec, g);
    const auto b = makeSampler(spec, g);
    const auto sa = a->sample(request);
    const auto sb = b->sample(request);
    EXPECT_EQ(sa.node_bits, sb.node_bits);
    EXPECT_DOUBLE_EQ(sa.clause_energy, sb.clause_energy);
    EXPECT_EQ(static_cast<int>(sa.node_bits.size()),
              request.problem->numNodes());
    // The logical path has no chains to break.
    EXPECT_EQ(sa.chain_breaks, 0);
}

TEST(Sampler, FactoryBuildsEveryNamedBackend)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);

    EXPECT_EQ(samplerNames(),
              (std::vector<std::string>{"qa", "logical", "sa"}));
    for (const auto &name : samplerNames()) {
        SamplerSpec spec;
        spec.name = name;
        spec.annealer = noiseFreeOptions();
        const auto sampler = makeSampler(spec, g);
        ASSERT_NE(sampler, nullptr) << name;
        EXPECT_STREQ(sampler->name(), name.c_str());
        const auto s = sampler->sample(request);
        EXPECT_EQ(static_cast<int>(s.node_bits.size()),
                  request.problem->numNodes())
            << name;
    }
}

TEST(Sampler, FactoryRejectsUnknownAndNestedNames)
{
    // The retired wrapper spellings are unknown names like any
    // other.
    const auto g = topology::Topology::dwave2000q();
    for (const char *name :
         {"qpu-over-carrier-pigeon", "", "sync", "batch", "async"}) {
        SamplerSpec bad;
        bad.name = name;
        EXPECT_EXIT(makeSampler(bad, g), ::testing::ExitedWithCode(1),
                    "unknown sampler backend")
            << name;
    }
}

} // namespace
} // namespace hyqsat::anneal
