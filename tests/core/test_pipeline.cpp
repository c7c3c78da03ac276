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
 * Test double: every sample is the all-zero assignment, optionally
 * marked as cut short by the stop token, and records what it was
 * asked.
 */
class FakeSampler : public anneal::Sampler
{
  public:
    const char *name() const override { return "fake"; }

    anneal::AnnealSample
    sample(const anneal::SampleRequest &request) override
    {
        ++calls;
        anneal::AnnealSample s;
        s.node_bits.assign(request.problem->numNodes(), false);
        s.device_time_us = 130.0;
        s.cancelled = cancel_next;
        cancel_next = false;
        return s;
    }

    int calls = 0;
    bool cancel_next = false;
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
    FakeSampler sampler;
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    const std::optional<ReadySample> ready =
        pipeline.step(fx.solver, /*conflicts=*/0);
    ASSERT_TRUE(ready.has_value());
    ASSERT_NE(ready->frontend, nullptr);
    EXPECT_FALSE(ready->frontend->embedded_clauses.empty());
    EXPECT_EQ(ready->sample.node_bits.size(),
              static_cast<std::size_t>(
                  ready->frontend->embedded->problem.numNodes()));
    EXPECT_EQ(sampler.calls, 1);
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_DOUBLE_EQ(stats.device_s, 130e-6);
}

TEST(SamplePipeline, FrontendCacheReusedWithinEpoch)
{
    Fixture fx;
    FakeSampler sampler;
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    const auto first = pipeline.step(fx.solver, 0);
    const double after_first = pipeline.stats().frontend_s;
    EXPECT_GT(after_first, 0.0);
    const auto second = pipeline.step(fx.solver, 0);
    pipeline.step(fx.solver, 0);
    // Same conflict count: no further frontend passes were run, and
    // every sample was taken from the one cached result.
    EXPECT_DOUBLE_EQ(pipeline.stats().frontend_s, after_first);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(first->frontend, second->frontend);
    EXPECT_EQ(sampler.calls, 3);
    // A new conflict count: one more pass.
    const auto third = pipeline.step(fx.solver, 1);
    EXPECT_GT(pipeline.stats().frontend_s, after_first);
    ASSERT_TRUE(third);
    EXPECT_NE(third->frontend, first->frontend);
}

TEST(PipelineCancel, CutShortCompletionIsCountedNotDelivered)
{
    Fixture fx;
    FakeSampler sampler;
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng);

    sampler.cancel_next = true;
    EXPECT_FALSE(pipeline.step(fx.solver, 0).has_value());
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.cancelled, 1);
    // No readout happened: nothing is charged as device time.
    EXPECT_EQ(stats.device_s, 0.0);

    EXPECT_TRUE(pipeline.step(fx.solver, 0).has_value());
    EXPECT_EQ(pipeline.stats().cancelled, 1);
}

TEST(PipelineCancel, TrippedTokenSkipsTheSample)
{
    Fixture fx;
    FakeSampler sampler;
    StopToken stop;
    SamplePipeline pipeline(fx.frontend, sampler, fx.rng, nullptr, &stop);

    EXPECT_TRUE(pipeline.step(fx.solver, 0).has_value());
    stop.requestStop();
    EXPECT_FALSE(pipeline.step(fx.solver, 0).has_value());
    EXPECT_FALSE(pipeline.step(fx.solver, 1).has_value());
    // The sampler was asked once; the two steps after the trip
    // count as cancelled without a request or device time.
    EXPECT_EQ(sampler.calls, 1);
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.cancelled, 2);
    EXPECT_DOUBLE_EQ(stats.device_s, 130e-6);
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
