#include <gtest/gtest.h>

#include "anneal/async_sampler.h"
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
        const auto b = via_interface.sampleNow(request);
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
    const auto b = via_interface.sampleNow(request);
    EXPECT_EQ(a.node_bits, b.node_bits);
    EXPECT_DOUBLE_EQ(a.clause_energy, b.clause_energy);
}

TEST(Sampler, SyncSamplerTicketsAndInFlight)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);
    QaSampler sampler(g, noiseFreeOptions());

    EXPECT_EQ(sampler.capacity(), 1);
    EXPECT_EQ(sampler.inFlight(), 0);
    const auto t1 = sampler.submit(request);
    const auto t2 = sampler.submit(request);
    EXPECT_LT(t1, t2);
    EXPECT_EQ(sampler.inFlight(), 2);

    std::vector<SampleCompletion> done;
    sampler.poll(done);
    ASSERT_EQ(done.size(), 2u);
    // FIFO completion order.
    EXPECT_EQ(done[0].ticket, t1);
    EXPECT_EQ(done[1].ticket, t2);
    EXPECT_GE(done[0].host_seconds, 0.0);
    EXPECT_EQ(sampler.inFlight(), 0);
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
    const auto sa = a->sampleNow(request);
    const auto sb = b->sampleNow(request);
    EXPECT_EQ(sa.node_bits, sb.node_bits);
    EXPECT_DOUBLE_EQ(sa.clause_energy, sb.clause_energy);
    EXPECT_EQ(static_cast<int>(sa.node_bits.size()),
              request.problem->numNodes());
    // The logical path has no chains to break.
    EXPECT_EQ(sa.chain_breaks, 0);
}

TEST(Sampler, AsyncSamplerDeliversEverySubmissionInOrder)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);

    AsyncSampler::Options opts;
    opts.depth = 3;
    AsyncSampler async(
        std::make_unique<QaSampler>(g, noiseFreeOptions()), opts);
    EXPECT_EQ(async.capacity(), 3);

    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < 5; ++i)
        tickets.push_back(async.submit(request));

    std::vector<SampleCompletion> done;
    while (done.size() < tickets.size())
        async.wait(done);
    ASSERT_EQ(done.size(), tickets.size());
    for (std::size_t i = 0; i < tickets.size(); ++i)
        EXPECT_EQ(done[i].ticket, tickets[i]);
    EXPECT_EQ(async.inFlight(), 0);
}

TEST(Sampler, AsyncSamplerMatchesSyncStream)
{
    // One worker draining a FIFO against one synchronous sampler:
    // identical request sequences must produce identical samples.
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);

    QaSampler sync(g, noiseFreeOptions());
    AsyncSampler async(
        std::make_unique<QaSampler>(g, noiseFreeOptions()), {});

    for (int i = 0; i < 3; ++i) {
        const auto a = sync.sampleNow(request);
        const auto b = async.sampleNow(request);
        EXPECT_EQ(a.node_bits, b.node_bits) << "sample " << i;
        EXPECT_DOUBLE_EQ(a.clause_energy, b.clause_energy);
    }
}

TEST(Sampler, AsyncSamplerAbandonsPendingJobsOnDestruction)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);
    {
        AsyncSampler async(
            std::make_unique<QaSampler>(g, noiseFreeOptions()), {});
        for (int i = 0; i < 8; ++i)
            async.submit(request);
        // Destructor must join cleanly with jobs still queued.
    }
    SUCCEED();
}

TEST(Sampler, FactoryBuildsEveryNamedBackend)
{
    const auto g = topology::Topology::dwave2000q();
    const auto request = requestFixture(g);

    EXPECT_EQ(samplerNames(),
              (std::vector<std::string>{"qa", "logical", "sa"}));
    for (const auto &name : samplerNames()) {
        // Depth 1 is the device itself; depth >= 2 runs it behind
        // the async pipeline.
        for (const int depth : {1, 3}) {
            SamplerSpec spec;
            spec.name = name;
            spec.annealer = noiseFreeOptions();
            spec.pipeline_depth = depth;
            const auto sampler = makeSampler(spec, g);
            ASSERT_NE(sampler, nullptr) << name;
            EXPECT_STREQ(sampler->name(),
                         depth == 1 ? name.c_str() : "async")
                << name;
            EXPECT_EQ(sampler->capacity(), depth) << name;
            const auto s = sampler->sampleNow(request);
            EXPECT_EQ(static_cast<int>(s.node_bits.size()),
                      request.problem->numNodes())
                << name << " depth " << depth;
        }
    }
}

TEST(Sampler, FactoryComposesAsyncWrappers)
{
    // A plain backend name plus pipeline_depth >= 2 composes the async
    // wrapper; the wrapper's capacity is the requested depth.
    const auto g = topology::Topology::dwave2000q();
    SamplerSpec spec;
    spec.name = "sa";
    spec.pipeline_depth = 4;
    const auto sampler = makeSampler(spec, g);
    EXPECT_STREQ(sampler->name(), "async");
    EXPECT_EQ(sampler->capacity(), 4);

    auto request = requestFixture(g);
    const auto s = sampler->sampleNow(request);
    EXPECT_EQ(static_cast<int>(s.node_bits.size()),
              request.problem->numNodes());
}

TEST(Sampler, FactoryRejectsUnknownAndNestedNames)
{
    // The async pipeline is pipeline_depth, never a name, so the
    // retired wrapper spellings are unknown names like any other.
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
