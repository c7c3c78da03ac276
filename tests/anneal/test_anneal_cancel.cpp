/**
 * @file
 * The SA sweep loop as a cancellation point (SaOptions::stop): a token
 * that never trips changes nothing, a pre-tripped token ends every
 * read before its first sweep, and a token tripped from another
 * thread cuts a multi-second sample short through SaSampler, the
 * lockstep kernels and QuantumAnnealer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "anneal/annealer.h"
#include "anneal/sa_batch.h"
#include "anneal/sampler.h"
#include "tests/anneal/helpers.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace hyqsat::anneal {
namespace {

using testing::frontendProblem;
using testing::hostTiers;

void
expectSameResult(const SaResult &a, const SaResult &b)
{
    EXPECT_EQ(a.spins, b.spins);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy),
              std::bit_cast<std::uint64_t>(b.energy));
    EXPECT_EQ(a.stats.sweeps, b.stats.sweeps);
    EXPECT_EQ(a.stats.flips_attempted, b.stats.flips_attempted);
    EXPECT_EQ(a.stats.flips_accepted, b.stats.flips_accepted);
    EXPECT_EQ(a.stats.reads, b.stats.reads);
    EXPECT_EQ(a.stats.read_groups, b.stats.read_groups);
    EXPECT_FALSE(a.cancelled);
    EXPECT_FALSE(b.cancelled);
}

/**
 * The embedded chained model the hybrid loop anneals: a frontend
 * problem programmed onto the graph with one control-noise draw.
 */
class AnnealCancel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fx_ = frontendProblem(graph_);
        ASSERT_TRUE(fx_);
        ASSERT_GT(fx_->problem.numNodes(), 0);
    }

    QuantumAnnealer::Options
    annealerOptions(int sweeps) const
    {
        QuantumAnnealer::Options opts;
        opts.noise = NoiseModel::dwave2000q();
        opts.noise.sweeps = sweeps;
        return opts;
    }

    const topology::Topology graph_{16, 16, 4};
    std::shared_ptr<const embed::QueueEmbedResult> fx_;
};

/** The lockstep-kernel cases, run per host ISA (the avx2 CI leg). */
class LockstepCancel : public AnnealCancel
{
};

TEST_F(AnnealCancel, UntrippedTokenLeavesScalarChainIdentical)
{
    QuantumAnnealer qa(graph_, annealerOptions(64));
    const SaSampler sampler =
        qa.programSampler(fx_->problem, fx_->embedding);
    ASSERT_FALSE(sampler.compiled().groups.empty());

    StopToken never;
    for (const int reads : {1, 9}) {
        SaOptions plain;
        plain.sweeps = 64;
        plain.num_reads = reads;
        SaOptions polled = plain;
        polled.stop = &never;
        Rng a(0xc0ffee);
        Rng b(0xc0ffee);
        expectSameResult(sampler.sample(plain, a),
                         sampler.sample(polled, b));
        EXPECT_EQ(a.next(), b.next()) << "reads=" << reads;
    }
}

TEST_F(LockstepCancel, UntrippedTokenIsBitIdenticalOnEveryIsa)
{
    QuantumAnnealer qa(graph_, annealerOptions(48));
    const SaSampler sampler =
        qa.programSampler(fx_->problem, fx_->embedding);
    const SaCompiled &c = sampler.compiled();

    StopToken never;
    // One 4-lane group, one 8-lane group, and two and three groups.
    for (const int reads : {3, 8, 12, 16, 20}) {
        SaOptions plain;
        plain.sweeps = 48;
        plain.num_reads = reads;
        SaOptions polled = plain;
        polled.stop = &never;
        for (const simd::Isa isa : hostTiers()) {
            SCOPED_TRACE(::testing::Message()
                         << "isa=" << simd::isaName(isa)
                         << " reads=" << reads);
            const auto want =
                sampleLockstep(c, sampler.fields(), sampler.couplings(),
                               plain, 0x5eed, isa);
            const auto got =
                sampleLockstep(c, sampler.fields(), sampler.couplings(),
                               polled, 0x5eed, isa);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t r = 0; r < want.size(); ++r)
                expectSameResult(want[r], got[r]);
        }
    }
}

TEST_F(AnnealCancel, UntrippedTokenLeavesAnnealerSampleIdentical)
{
    QuantumAnnealer::Options opts = annealerOptions(64);
    opts.num_reads = 16;
    opts.attempts = 2;
    QuantumAnnealer plain(graph_, opts);
    QuantumAnnealer polled(graph_, opts);
    StopToken never;
    polled.setStopToken(&never);
    for (int shot = 0; shot < 2; ++shot) {
        const AnnealSample a = plain.sample(fx_->problem, fx_->embedding);
        const AnnealSample b =
            polled.sample(fx_->problem, fx_->embedding);
        EXPECT_EQ(a.node_bits, b.node_bits);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.physical_energy),
                  std::bit_cast<std::uint64_t>(b.physical_energy));
        EXPECT_EQ(a.chain_breaks, b.chain_breaks);
        EXPECT_FALSE(b.cancelled);
        EXPECT_EQ(plain.lastRunStats().flips_attempted,
                  polled.lastRunStats().flips_attempted);
        EXPECT_EQ(plain.lastRunStats().flips_accepted,
                  polled.lastRunStats().flips_accepted);
    }
    EXPECT_EQ(plain.rng().next(), polled.rng().next());
}

TEST_F(AnnealCancel, PreTrippedTokenRunsZeroSweeps)
{
    QuantumAnnealer qa(graph_, annealerOptions(64));
    const SaSampler sampler =
        qa.programSampler(fx_->problem, fx_->embedding);
    StopToken stop;
    stop.requestStop();

    SaOptions opts;
    opts.sweeps = 64;
    opts.stop = &stop;
    Rng rng(3);
    const SaResult one = sampler.sample(opts, rng);
    EXPECT_TRUE(one.cancelled);
    EXPECT_EQ(one.stats.sweeps, 0u);
    EXPECT_EQ(one.stats.flips_attempted, 0u);
    EXPECT_EQ(one.spins.size(),
              static_cast<std::size_t>(sampler.numSpins()));

    opts.num_reads = 9;
    const SaResult best = sampler.sample(opts, rng);
    EXPECT_TRUE(best.cancelled);
    EXPECT_EQ(best.stats.sweeps, 0u);
    EXPECT_EQ(best.stats.flips_attempted, 0u);

    // The annealer stops after the first cut-short attempt.
    QuantumAnnealer::Options aopts = annealerOptions(64);
    aopts.attempts = 3;
    QuantumAnnealer stopped(graph_, aopts);
    stopped.setStopToken(&stop);
    const AnnealSample s = stopped.sample(fx_->problem, fx_->embedding);
    EXPECT_TRUE(s.cancelled);
    EXPECT_EQ(stopped.lastRunStats().reads, 1u);
    EXPECT_EQ(stopped.lastRunStats().sweeps, 0u);
}

TEST_F(AnnealCancel, EverySyncBackendGetsTheToken)
{
    // makeSampler wires SamplerSpec::stop into each backend's anneal.
    StopToken stop;
    stop.requestStop();
    for (const char *name : {"qa", "logical", "sa"}) {
        SamplerSpec spec;
        spec.name = name;
        spec.annealer = annealerOptions(64);
        spec.stop = &stop;
        auto sampler = makeSampler(spec, graph_);
        SampleRequest request;
        request.problem = std::shared_ptr<const qubo::EncodedProblem>(
            fx_, &fx_->problem);
        request.embedding = std::shared_ptr<const embed::Embedding>(
            fx_, &fx_->embedding);
        EXPECT_TRUE(sampler->sample(request).cancelled)
            << name;
    }
}

TEST_F(LockstepCancel, PreTrippedTokenRunsZeroSweepsOnEveryIsa)
{
    QuantumAnnealer qa(graph_, annealerOptions(64));
    const SaSampler sampler =
        qa.programSampler(fx_->problem, fx_->embedding);
    StopToken stop;
    stop.requestStop();
    SaOptions opts;
    opts.sweeps = 64;
    opts.stop = &stop;
    for (const int reads : {8, 12, 16}) {
        opts.num_reads = reads;
        for (const simd::Isa isa : hostTiers()) {
            const auto out =
                sampleLockstep(sampler.compiled(), sampler.fields(),
                               sampler.couplings(), opts, 0x5eed, isa);
            ASSERT_EQ(out.size(), static_cast<std::size_t>(reads));
            for (const SaResult &r : out) {
                EXPECT_TRUE(r.cancelled) << simd::isaName(isa);
                EXPECT_EQ(r.stats.sweeps, 0u);
                EXPECT_EQ(r.stats.flips_attempted, 0u);
                EXPECT_EQ(r.stats.flips_accepted, 0u);
            }
        }
    }
}

/**
 * Sweeps that make @p run (seconds for a given sweep count) last
 * about @p target_s, measured on this host, so the cut-short checks
 * below stay meaningful under sanitizers and on slow runners.
 */
int
sweepsLasting(double target_s, const std::function<double(int)> &run)
{
    constexpr int kProbe = 200;
    const double probe_s = std::max(run(kProbe), 1e-6);
    const double sweeps = target_s / probe_s * kProbe;
    return static_cast<int>(std::clamp(sweeps, 1000.0, 2e6));
}

/** Trip @p stop after @p delay on a helper thread. */
std::thread
tripAfter(StopToken &stop, std::chrono::milliseconds delay)
{
    return std::thread([&stop, delay] {
        std::this_thread::sleep_for(delay);
        stop.requestStop();
    });
}

constexpr double kFullSampleS = 3.0;
constexpr auto kTripDelay = std::chrono::milliseconds(100);

/** A cut-short call must return well before the full sample. */
constexpr double kCutBoundS = 0.4 * kFullSampleS;

TEST_F(AnnealCancel, TripMidSampleCutsScalarChainShort)
{
    QuantumAnnealer qa(graph_, annealerOptions(64));
    const SaSampler sampler =
        qa.programSampler(fx_->problem, fx_->embedding);
    SaOptions opts;
    opts.sweeps = sweepsLasting(kFullSampleS, [&](int sweeps) {
        SaOptions probe;
        probe.sweeps = sweeps;
        Rng rng(1);
        Timer t;
        (void)sampler.sample(probe, rng);
        return t.seconds();
    });

    StopToken stop;
    opts.stop = &stop;
    Rng rng(2);
    std::thread tripper = tripAfter(stop, kTripDelay);
    Timer timer;
    const SaResult r = sampler.sample(opts, rng);
    const double elapsed = timer.seconds();
    tripper.join();

    EXPECT_TRUE(r.cancelled);
    EXPECT_LT(r.stats.sweeps, static_cast<std::uint64_t>(opts.sweeps));
    EXPECT_LT(elapsed, kCutBoundS)
        << "sweeps=" << opts.sweeps << " ran past the trip";
}

TEST_F(LockstepCancel, TripMidSampleCutsEveryGroupShort)
{
    QuantumAnnealer qa(graph_, annealerOptions(64));
    const SaSampler sampler =
        qa.programSampler(fx_->problem, fx_->embedding);
    for (const simd::Isa isa : hostTiers()) {
        SCOPED_TRACE(simd::isaName(isa));
        SaOptions opts;
        opts.num_reads = 16; // two auto-sized groups of 8 lanes
        const auto run = [&](const SaOptions &o) {
            return sampleLockstep(sampler.compiled(), sampler.fields(),
                                  sampler.couplings(), o, 0x5eed, isa);
        };
        opts.sweeps = sweepsLasting(kFullSampleS, [&](int sweeps) {
            SaOptions probe = opts;
            probe.sweeps = sweeps;
            Timer t;
            (void)run(probe);
            return t.seconds();
        });

        StopToken stop;
        opts.stop = &stop;
        std::thread tripper = tripAfter(stop, kTripDelay);
        Timer timer;
        const auto out = run(opts);
        const double elapsed = timer.seconds();
        tripper.join();

        for (const SaResult &r : out) {
            EXPECT_TRUE(r.cancelled);
            EXPECT_LT(r.stats.sweeps,
                      static_cast<std::uint64_t>(opts.sweeps));
        }
        EXPECT_LT(elapsed, kCutBoundS)
            << "sweeps=" << opts.sweeps << " ran past the trip";
    }
}

TEST_F(AnnealCancel, TripMidSampleCutsAnnealerShort)
{
    const auto timeRun = [&](int sweeps) {
        QuantumAnnealer probe(graph_, annealerOptions(sweeps));
        Timer t;
        (void)probe.sample(fx_->problem, fx_->embedding);
        return t.seconds();
    };
    const int sweeps = sweepsLasting(kFullSampleS, timeRun);

    QuantumAnnealer::Options opts = annealerOptions(sweeps);
    opts.attempts = 4;
    QuantumAnnealer qa(graph_, opts);
    StopToken stop;
    qa.setStopToken(&stop);
    std::thread tripper = tripAfter(stop, kTripDelay);
    Timer timer;
    const AnnealSample s = qa.sample(fx_->problem, fx_->embedding);
    const double elapsed = timer.seconds();
    tripper.join();

    EXPECT_TRUE(s.cancelled);
    EXPECT_LT(qa.lastRunStats().sweeps,
              static_cast<std::uint64_t>(sweeps));
    EXPECT_EQ(qa.lastRunStats().reads, 1u) << "no further attempts";
    EXPECT_LT(elapsed, kCutBoundS);
}

} // namespace
} // namespace hyqsat::anneal
