#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/hybrid_solver.h"
#include "core/pipeline.h"
#include "core/session.h"
#include "gen/random_sat.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"
#include "util/cancel.h"

namespace hyqsat::core {
namespace {

/**
 * Test double: completions are released only when the test says so,
 * which makes in-flight / stale / stall behavior fully controllable.
 */
class ManualSampler : public anneal::Sampler
{
  public:
    explicit ManualSampler(int capacity) : capacity_(capacity) {}

    const char *name() const override { return "manual"; }
    int capacity() const override { return capacity_; }

    std::uint64_t
    submit(anneal::SampleRequest request) override
    {
        pending_.push_back({next_ticket_++, std::move(request)});
        return pending_.back().first;
    }

    void
    poll(std::vector<anneal::SampleCompletion> &out) override
    {
        for (auto &c : released_)
            out.push_back(std::move(c));
        released_.clear();
    }

    void
    wait(std::vector<anneal::SampleCompletion> &out) override
    {
        poll(out);
    }

    int
    inFlight() const override
    {
        return static_cast<int>(pending_.size() + released_.size());
    }

    /**
     * Complete the oldest pending job with a zero-energy sample,
     * optionally marked as cut short by the stop token.
     */
    void
    releaseOne(bool cancelled = false)
    {
        ASSERT_FALSE(pending_.empty());
        auto [ticket, request] = std::move(pending_.front());
        pending_.erase(pending_.begin());
        anneal::SampleCompletion c;
        c.ticket = ticket;
        c.sample.node_bits.assign(request.problem->numNodes(), false);
        c.sample.device_time_us = 130.0;
        c.sample.cancelled = cancelled;
        released_.push_back(std::move(c));
    }

    int pendingCount() const { return static_cast<int>(pending_.size()); }

  private:
    int capacity_;
    std::uint64_t next_ticket_ = 1;
    std::vector<std::pair<std::uint64_t, anneal::SampleRequest>>
        pending_;
    std::vector<anneal::SampleCompletion> released_;
};

/** A solver loaded with a small instrumented 3-SAT instance. */
struct Fixture
{
    topology::Topology graph{16, 16, 4};
    FrontendOptions fe_opts;
    Frontend frontend{graph, fe_opts};
    Rng rng{0xfee1};
    sat::Solver solver;
    sat::Cnf cnf;

    Fixture()
    {
        Rng gen(77);
        cnf = sat::testing::randomCnf(20, 60, 3, gen);
        EXPECT_TRUE(solver.loadCnf(cnf));
    }
};

TEST(SamplePipeline, FreshCompletionIsDelivered)
{
    Fixture fx;
    ManualSampler sampler(2);
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    std::vector<ReadySample> ready;
    pipeline.step(fx.solver, /*epoch=*/0, ready);
    EXPECT_TRUE(ready.empty());
    EXPECT_EQ(pipeline.stats().submitted, 1);

    sampler.releaseOne();
    pipeline.step(fx.solver, 0, ready);
    ASSERT_EQ(ready.size(), 1u);
    ASSERT_NE(ready[0].frontend, nullptr);
    EXPECT_FALSE(ready[0].frontend->embedded_clauses.empty());
    EXPECT_EQ(pipeline.stats().harvested, 1);
    EXPECT_EQ(pipeline.stats().stale_discarded, 0);
}

TEST(SamplePipeline, StaleCompletionIsDiscarded)
{
    Fixture fx;
    ManualSampler sampler(2);
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    std::vector<ReadySample> ready;
    pipeline.step(fx.solver, 0, ready); // submit at epoch 0
    sampler.releaseOne();

    // A conflict intervened: the job from epoch 0 is stale.
    pipeline.step(fx.solver, 1, ready);
    EXPECT_TRUE(ready.empty() || pipeline.stats().stale_discarded == 1);
    EXPECT_EQ(pipeline.stats().stale_discarded, 1);
    // The epoch change also forced a fresh frontend pass and a new
    // submission at epoch 1.
    EXPECT_EQ(pipeline.stats().submitted, 2);

    sampler.releaseOne();
    ready.clear();
    pipeline.step(fx.solver, 1, ready);
    ASSERT_EQ(ready.size(), 1u);
}

TEST(SamplePipeline, FullPipelineCountsStalls)
{
    Fixture fx;
    ManualSampler sampler(1);
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    std::vector<ReadySample> ready;
    pipeline.step(fx.solver, 0, ready); // fills the single slot
    pipeline.step(fx.solver, 0, ready); // full -> stall
    pipeline.step(fx.solver, 0, ready); // still full -> stall
    EXPECT_EQ(pipeline.stats().submitted, 1);
    EXPECT_EQ(pipeline.stats().stalls, 2);

    sampler.releaseOne();
    // step() tries to submit before it harvests, so the harvesting
    // step still finds the pipeline full; the slot freed by the
    // harvest is refilled on the next step.
    pipeline.step(fx.solver, 0, ready);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(pipeline.stats().submitted, 1);
    EXPECT_EQ(pipeline.stats().stalls, 3);
    ready.clear();
    pipeline.step(fx.solver, 0, ready);
    EXPECT_EQ(pipeline.stats().submitted, 2);
    EXPECT_EQ(pipeline.stats().stalls, 3);
}

TEST(SamplePipeline, ConflictNotificationRetiresStaleWork)
{
    Fixture fx;
    ManualSampler sampler(2);
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    std::vector<ReadySample> ready;
    pipeline.step(fx.solver, 0, ready);
    sampler.releaseOne();

    pipeline.notifyConflict(/*epoch=*/1);
    EXPECT_EQ(pipeline.stats().harvested, 1);
    EXPECT_EQ(pipeline.stats().stale_discarded, 1);
    EXPECT_EQ(sampler.inFlight(), 0);
}

TEST(SamplePipeline, FrontendCacheReusedWithinEpoch)
{
    Fixture fx;
    ManualSampler sampler(8);
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    std::vector<ReadySample> ready;
    pipeline.step(fx.solver, 0, ready);
    const double after_first = pipeline.stats().frontend_s;
    EXPECT_GT(after_first, 0.0);
    pipeline.step(fx.solver, 0, ready);
    pipeline.step(fx.solver, 0, ready);
    // Same epoch: no further frontend passes were run.
    EXPECT_DOUBLE_EQ(pipeline.stats().frontend_s, after_first);
    // New epoch: one more pass.
    pipeline.step(fx.solver, 1, ready);
    EXPECT_GT(pipeline.stats().frontend_s, after_first);
}

TEST(SamplePipeline, TracksInFlightAndBlockingTime)
{
    Fixture fx;
    ManualSampler sampler(2);
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    std::vector<ReadySample> ready;
    pipeline.step(fx.solver, 0, ready);
    sampler.releaseOne();
    pipeline.step(fx.solver, 0, ready);
    ASSERT_EQ(ready.size(), 1u);
    const auto &stats = pipeline.stats();
    EXPECT_GT(stats.device_s, 0.0);
    EXPECT_GE(stats.inflight_s, 0.0);
    // Blocking time can never exceed modeled device time.
    EXPECT_LE(stats.blocking_s, stats.device_s + 1e-12);
}

TEST(SamplePipeline, AsynchronousReflectsSamplerCapacity)
{
    Fixture fx;
    ManualSampler deep(4), shallow(1);
    SamplePipeline a(fx.frontend, deep, fx.rng);
    SamplePipeline b(fx.frontend, shallow, fx.rng);
    EXPECT_TRUE(a.asynchronous());
    EXPECT_FALSE(b.asynchronous());
}

TEST(PipelineCancel, CutShortCompletionIsCountedNotDelivered)
{
    Fixture fx;
    ManualSampler sampler(2);
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    std::vector<ReadySample> ready;
    pipeline.step(fx.solver, 0, ready);
    sampler.releaseOne(/*cancelled=*/true);
    pipeline.step(fx.solver, 0, ready);
    EXPECT_TRUE(ready.empty());
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.harvested, 1);
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_EQ(stats.stale_discarded, 0);
    // No readout happened: nothing is charged as device time.
    EXPECT_EQ(stats.device_s, 0.0);

    sampler.releaseOne();
    pipeline.step(fx.solver, 0, ready);
    EXPECT_EQ(ready.size(), 1u);
    EXPECT_EQ(pipeline.stats().cancelled, 1);
}

/**
 * A hybrid config whose every sample anneals for seconds, with @p stop
 * attached: the first sample is still running when a helper thread
 * trips the token.
 */
HybridConfig
slowSampleConfig(const StopToken &stop)
{
    HybridConfig config;
    config.annealer.noise.sweeps = 1000000;
    config.warmup_override = 8;
    config.stop = &stop;
    return config;
}

/** Trip @p stop once the first sample is well under way. */
std::thread
tripSoon(StopToken &stop)
{
    return std::thread([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        stop.requestStop();
    });
}

sat::Cnf
cancelInstance()
{
    Rng gen(0xcafe);
    return gen::plantedRandom3Sat(60, 250, gen);
}

TEST(PipelineCancel, HybridSolverNeverAppliesCutShortSample)
{
    StopToken stop;
    MetricsRegistry metrics;
    HybridConfig config = slowSampleConfig(stop);
    config.metrics = &metrics;
    HybridSolver solver(config);
    std::thread tripper = tripSoon(stop);
    const HybridResult result = solver.solve(cancelInstance());
    tripper.join();

    EXPECT_TRUE(result.status.isUndef());
    EXPECT_EQ(metrics.counter("pipeline.submitted")->value(), 1u);
    EXPECT_EQ(metrics.counter("pipeline.cancelled")->value(), 1u);
    EXPECT_EQ(metrics.counter("backend.samples")->value(), 0u);
    EXPECT_EQ(result.qa_samples, 0);
}

TEST(PipelineCancel, SessionNeverAppliesCutShortSample)
{
    StopToken stop;
    MetricsRegistry metrics;
    HybridResult result;
    {
        HybridConfig config = slowSampleConfig(stop);
        config.metrics = &metrics; // merged when the session closes
        Session session(config);
        ASSERT_TRUE(session.addFormula(cancelInstance()));
        std::thread tripper = tripSoon(stop);
        result = session.solve();
        tripper.join();
    }

    EXPECT_TRUE(result.status.isUndef());
    EXPECT_EQ(metrics.counter("pipeline.submitted")->value(), 1u);
    EXPECT_EQ(metrics.counter("pipeline.cancelled")->value(), 1u);
    EXPECT_EQ(metrics.counter("backend.samples")->value(), 0u);
    EXPECT_EQ(result.qa_samples, 0);
}

} // namespace
} // namespace hyqsat::core
