/**
 * @file
 * JobScheduler semantics: admission control (global and per-tenant
 * backpressure, reject-while-draining), priority ordering and
 * round-robin fairness across tenants, timeout cancellation latency,
 * graceful drain (both policies) leaving no orphans, record
 * retention, and the 100-job multi-tenant soak with the accounting
 * invariant submitted == completed + rejected + cancelled.
 *
 * Tests that need a deterministic queue state use start_paused: the
 * workers park until resume()/drain(), so submissions can't race the
 * pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_sat.h"
#include "sat/dimacs.h"
#include "service/scheduler.h"
#include "topology/topology.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hyqsat::service {
namespace {

const char *kSatCnf = "c tiny satisfiable\n"
                      "p cnf 3 2\n"
                      "1 2 3 0\n"
                      "-1 2 0\n";

/** All 8 sign patterns over 3 variables: unsatisfiable. */
std::string
unsatCnf()
{
    std::string s = "p cnf 3 8\n";
    for (int mask = 0; mask < 8; ++mask) {
        for (int v = 0; v < 3; ++v)
            s += std::to_string((mask >> v) & 1 ? -(v + 1) : v + 1) +
                 " ";
        s += "0\n";
    }
    return s;
}

SchedulerOptions
smallOptions()
{
    SchedulerOptions opts;
    opts.portfolio.base.annealer.noise =
        anneal::NoiseModel::noiseFree();
    opts.portfolio.base.annealer.greedy_finish = true;
    opts.portfolio.num_workers = 2;
    opts.workers = 2;
    return opts;
}

JobSpec
inlineJob(const std::string &tenant, int priority,
          const std::string &name, std::string dimacs)
{
    JobSpec spec;
    spec.tenant = tenant;
    spec.priority = priority;
    spec.name = name;
    spec.dimacs = std::move(dimacs);
    return spec;
}

TEST(JobScheduler, SolvesInlineDimacsJobs)
{
    JobScheduler scheduler(smallOptions());
    const Submission sat =
        scheduler.submit(inlineJob("default", 0, "easy", kSatCnf));
    const Submission unsat =
        scheduler.submit(inlineJob("default", 0, "hard", unsatCnf()));
    ASSERT_TRUE(sat.accepted);
    ASSERT_TRUE(unsat.accepted);

    const InstanceRecord sat_rec = scheduler.wait(sat.id);
    EXPECT_EQ(sat_rec.status, "SAT");
    EXPECT_EQ(sat_rec.name, "easy");
    EXPECT_EQ(sat_rec.vars, 3);
    EXPECT_EQ(sat_rec.clauses, 2);
    EXPECT_FALSE(sat_rec.winner.empty());

    const InstanceRecord unsat_rec = scheduler.wait(unsat.id);
    EXPECT_EQ(unsat_rec.status, "UNSAT");
    scheduler.shutdown(DrainPolicy::FinishQueued);
    EXPECT_EQ(scheduler.queueDepth(), 0u);
}

TEST(JobScheduler, OneSubmitRecordsEveryLedgerTimerOnce)
{
    MetricsRegistry metrics;
    SchedulerOptions opts = smallOptions();
    opts.metrics = &metrics;
    JobScheduler scheduler(opts);
    const Submission sub =
        scheduler.submit(inlineJob("default", 0, "easy", kSatCnf));
    ASSERT_TRUE(sub.accepted);
    EXPECT_EQ(scheduler.wait(sub.id).status, "SAT");
    scheduler.shutdown(DrainPolicy::FinishQueued);

    for (const char *name : {"service.queue_wait", "service.parse",
                             "portfolio.start_latency", "portfolio.wall"})
        EXPECT_EQ(metrics.timer(name)->count(), 1u) << name;
}

TEST(JobScheduler, SimplifyOverrideEchoedInRecord)
{
    JobScheduler scheduler(smallOptions());
    JobSpec spec = inlineJob("default", 0, "easy", kSatCnf);
    spec.overrides = {*core::parseOverride("simplify=full", false)};
    const Submission sub = scheduler.submit(std::move(spec));
    ASSERT_TRUE(sub.accepted);
    const InstanceRecord rec = scheduler.wait(sub.id);
    EXPECT_EQ(rec.status, "SAT");
    EXPECT_EQ(rec.simplify, "full");
    // Without an override the record echoes the configured default.
    const Submission plain =
        scheduler.submit(inlineJob("default", 0, "easy2", kSatCnf));
    ASSERT_TRUE(plain.accepted);
    EXPECT_EQ(scheduler.wait(plain.id).simplify, "off");
}

/**
 * Run one job on a portfolio whose every worker runs to a small
 * conflict budget without clause sharing, so the job's anneal and
 * solver counters are a deterministic sum over its workers. With
 * @p slate the portfolio races two explicit 9-read workers (@p topo,
 * @p groups); without it the one-worker auto slate is the base
 * config itself.
 */
InstanceRecord
runBudgetedJob(bool slate, topology::Kind topo, int groups,
               const std::string &topology_override,
               const std::string &groups_override)
{
    SchedulerOptions opts = smallOptions();
    opts.workers = 1;
    opts.portfolio.share_clauses = false;
    opts.portfolio.conflict_budget = 60;
    core::HybridConfig &base = opts.portfolio.base;
    base.topology = topo;
    base.reads_groups = groups;
    base.num_reads = 9;
    base.warmup_override = 6;
    if (slate)
        opts.portfolio.workers = {{"w0", base}, {"w1", base}};
    else
        opts.portfolio.num_workers = 1;

    Rng gen(91);
    JobSpec spec = inlineJob(
        "t", 0, "budgeted",
        sat::toDimacsString(gen::uniformRandom3Sat(90, 450, gen)));
    for (const std::string &token : {topology_override, groups_override})
        if (!token.empty())
            spec.overrides.push_back(*core::parseOverride(token, false));
    JobScheduler scheduler(opts);
    const Submission sub = scheduler.submit(std::move(spec));
    EXPECT_TRUE(sub.accepted);
    InstanceRecord rec = scheduler.wait(sub.id);
    scheduler.shutdown(DrainPolicy::FinishQueued);
    return rec;
}

double
metricOf(const InstanceRecord &rec, const std::string &name)
{
    for (const auto &[key, value] : rec.metrics)
        if (key == name)
            return value;
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

/** The counters a worker's topology and read groups decide. */
std::vector<double>
annealCounters(const InstanceRecord &rec)
{
    return {metricOf(rec, "anneal.reads"),
            metricOf(rec, "anneal.read_groups"),
            metricOf(rec, "anneal.sweeps"),
            metricOf(rec, "anneal.flips.attempted"),
            metricOf(rec, "solver.propagations")};
}

TEST(JobScheduler, TopologyAndReadsGroupsOverridesReachEveryWorker)
{
    using topology::Kind;
    for (const bool slate : {true, false}) {
        SCOPED_TRACE(slate ? "explicit slate" : "base config");
        // A job overriding chimera/auto-groups to pegasus/8 groups
        // must count exactly what a portfolio configured that way
        // counts, and differ from the un-overridden portfolio.
        const InstanceRecord overridden =
            runBudgetedJob(slate, Kind::Chimera, 0, "topology=pegasus",
                           "reads_groups=8");
        const InstanceRecord native =
            runBudgetedJob(slate, Kind::Pegasus, 8, "", "");
        const InstanceRecord plain =
            runBudgetedJob(slate, Kind::Chimera, 0, "", "");
        ASSERT_EQ(overridden.status, "UNKNOWN");
        ASSERT_EQ(native.status, "UNKNOWN");
        ASSERT_EQ(plain.status, "UNKNOWN");

        EXPECT_GT(metricOf(overridden, "anneal.reads"), 0.0);
        EXPECT_EQ(annealCounters(overridden), annealCounters(native));
        EXPECT_NE(metricOf(overridden, "anneal.flips.attempted"),
                  metricOf(plain, "anneal.flips.attempted"));
        // 9 reads = read 0 + 8 extra reads: 8 groups per sample with
        // the override, one auto-sized group without it.
        EXPECT_EQ(metricOf(overridden, "anneal.read_groups") * 9,
                  metricOf(overridden, "anneal.reads") * 8);
        EXPECT_EQ(metricOf(plain, "anneal.read_groups") * 9,
                  metricOf(plain, "anneal.reads"));

        EXPECT_EQ(overridden.topology, "pegasus");
        EXPECT_EQ(overridden.reads_groups, 8);
        EXPECT_EQ(native.topology, "pegasus");
        EXPECT_EQ(native.reads_groups, 8);
        EXPECT_EQ(plain.topology, "chimera");
        EXPECT_EQ(plain.reads_groups, 0);
    }
}

TEST(JobScheduler, MalformedDimacsReportsParseError)
{
    JobScheduler scheduler(smallOptions());
    const Submission sub = scheduler.submit(
        inlineJob("default", 0, "broken", "p cnf oops\n1 2 0\n"));
    ASSERT_TRUE(sub.accepted);
    EXPECT_EQ(scheduler.wait(sub.id).status, "PARSE_ERROR");
}

TEST(JobScheduler, WaitOnUnknownIdReturnsUnknown)
{
    JobScheduler scheduler(smallOptions());
    EXPECT_EQ(scheduler.wait(999).status, "UNKNOWN");
    EXPECT_EQ(scheduler.state(999), JobState::Done);
}

TEST(JobScheduler, AdmissionRejectsWhenQueueFull)
{
    MetricsRegistry metrics;
    SchedulerOptions opts = smallOptions();
    opts.workers = 1;
    opts.max_queue_depth = 2;
    opts.start_paused = true; // nothing dequeues: depth is exact
    opts.metrics = &metrics;
    JobScheduler scheduler(opts);

    const Submission a =
        scheduler.submit(inlineJob("t", 0, "a", kSatCnf));
    const Submission b =
        scheduler.submit(inlineJob("t", 0, "b", kSatCnf));
    const Submission c =
        scheduler.submit(inlineJob("t", 0, "c", kSatCnf));
    EXPECT_TRUE(a.accepted);
    EXPECT_TRUE(b.accepted);
    EXPECT_FALSE(c.accepted);
    EXPECT_EQ(c.reject_reason, "queue_full");
    EXPECT_EQ(c.id, 0u);
    EXPECT_EQ(scheduler.queueDepth(), 2u);

    scheduler.resume();
    scheduler.shutdown(DrainPolicy::FinishQueued);
    EXPECT_EQ(metrics.counter("service.submitted")->value(), 3u);
    EXPECT_EQ(metrics.counter("service.accepted")->value(), 2u);
    EXPECT_EQ(metrics.counter("service.rejected")->value(), 1u);
    EXPECT_EQ(metrics.counter("service.completed")->value(), 2u);
}

TEST(JobScheduler, AdmissionRejectsPerTenantDepth)
{
    SchedulerOptions opts = smallOptions();
    opts.workers = 1;
    opts.max_tenant_depth = 1;
    opts.start_paused = true;
    JobScheduler scheduler(opts);

    EXPECT_TRUE(
        scheduler.submit(inlineJob("a", 0, "a1", kSatCnf)).accepted);
    const Submission a2 =
        scheduler.submit(inlineJob("a", 0, "a2", kSatCnf));
    EXPECT_FALSE(a2.accepted);
    EXPECT_EQ(a2.reject_reason, "tenant_queue_full");
    // The bound is per tenant: another tenant still gets in.
    EXPECT_TRUE(
        scheduler.submit(inlineJob("b", 0, "b1", kSatCnf)).accepted);

    scheduler.resume();
    scheduler.shutdown(DrainPolicy::FinishQueued);
}

TEST(JobScheduler, SubmitsRejectedWhileDraining)
{
    JobScheduler scheduler(smallOptions());
    scheduler.drain(DrainPolicy::FinishQueued);
    EXPECT_TRUE(scheduler.draining());
    const Submission sub =
        scheduler.submit(inlineJob("t", 0, "late", kSatCnf));
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.reject_reason, "draining");
}

TEST(JobScheduler, PriorityOrderingAcrossTenants)
{
    SchedulerOptions opts = smallOptions();
    opts.workers = 1; // serial: completion order == service order
    opts.start_paused = true;
    JobScheduler scheduler(opts);

    const Submission low1 =
        scheduler.submit(inlineJob("batch", 0, "low1", kSatCnf));
    const Submission low2 =
        scheduler.submit(inlineJob("batch", 0, "low2", kSatCnf));
    const Submission high =
        scheduler.submit(inlineJob("urgent", 5, "high", kSatCnf));
    ASSERT_TRUE(low1.accepted);
    ASSERT_TRUE(low2.accepted);
    ASSERT_TRUE(high.accepted);

    scheduler.resume();
    scheduler.waitIdle();
    const std::vector<JobId> order = scheduler.completionOrder();
    ASSERT_EQ(order.size(), 3u);
    // The priority-5 tenant is served before the priority-0 backlog
    // even though it submitted last.
    EXPECT_EQ(order[0], high.id);
    EXPECT_EQ(order[1], low1.id);
    EXPECT_EQ(order[2], low2.id);
    scheduler.shutdown(DrainPolicy::FinishQueued);
}

TEST(JobScheduler, RoundRobinAmongEqualPriorities)
{
    SchedulerOptions opts = smallOptions();
    opts.workers = 1;
    opts.start_paused = true;
    JobScheduler scheduler(opts);

    const Submission a1 =
        scheduler.submit(inlineJob("a", 0, "a1", kSatCnf));
    const Submission a2 =
        scheduler.submit(inlineJob("a", 0, "a2", kSatCnf));
    const Submission b1 =
        scheduler.submit(inlineJob("b", 0, "b1", kSatCnf));
    const Submission b2 =
        scheduler.submit(inlineJob("b", 0, "b2", kSatCnf));

    scheduler.resume();
    scheduler.waitIdle();
    const std::vector<JobId> order = scheduler.completionOrder();
    ASSERT_EQ(order.size(), 4u);
    // Equal priorities alternate (least recently served first)
    // instead of starving one tenant behind the other's backlog.
    EXPECT_EQ(order[0], a1.id);
    EXPECT_EQ(order[1], b1.id);
    EXPECT_EQ(order[2], a2.id);
    EXPECT_EQ(order[3], b2.id);
    scheduler.shutdown(DrainPolicy::FinishQueued);
}

TEST(JobScheduler, TimeoutCancellationLatencyBounded)
{
    // Near-threshold instance large enough that deciding it inside
    // the budget is very unlikely; if a worker still manages to, the
    // answer just has to be sound (same contract as the portfolio's
    // own timeout test).
    Rng gen(27);
    const std::string hard =
        sat::toDimacsString(gen::uniformRandom3Sat(450, 1917, gen));

    SchedulerOptions opts = smallOptions();
    opts.portfolio.base.warmup_override = 4;
    opts.workers = 1;
    JobScheduler scheduler(opts);

    JobSpec spec = inlineJob("t", 0, "hard", hard);
    spec.timeout_s = 0.05;
    const Submission sub = scheduler.submit(std::move(spec));
    ASSERT_TRUE(sub.accepted);
    const InstanceRecord rec = scheduler.wait(sub.id);
    EXPECT_TRUE(rec.status == "TIMEOUT" || rec.status == "SAT" ||
                rec.status == "UNSAT")
        << rec.status;
    // Cooperative cancellation keeps the overrun bounded even on
    // slow sanitizer builds.
    EXPECT_LT(rec.wall_s, 30.0);
    scheduler.shutdown(DrainPolicy::FinishQueued);
}

TEST(JobScheduler, DrainCancelLeavesNoOrphans)
{
    MetricsRegistry metrics;
    SchedulerOptions opts = smallOptions();
    opts.workers = 1;
    opts.start_paused = true; // every job still queued at drain time
    opts.metrics = &metrics;
    JobScheduler scheduler(opts);

    std::vector<Submission> subs;
    for (int i = 0; i < 6; ++i)
        subs.push_back(scheduler.submit(
            inlineJob(i % 2 ? "a" : "b", 0,
                      "job" + std::to_string(i), kSatCnf)));

    scheduler.drain(DrainPolicy::CancelPending);
    scheduler.waitIdle(); // must return: no orphaned queue entries
    EXPECT_EQ(scheduler.queueDepth(), 0u);
    for (const Submission &sub : subs) {
        ASSERT_TRUE(sub.accepted);
        EXPECT_EQ(scheduler.state(sub.id), JobState::Done);
        const InstanceRecord rec = scheduler.wait(sub.id);
        EXPECT_EQ(rec.status, "CANCELLED");
    }
    scheduler.shutdown(DrainPolicy::CancelPending);

    EXPECT_EQ(metrics.counter("service.submitted")->value(), 6u);
    EXPECT_EQ(metrics.counter("service.cancelled")->value(), 6u);
    EXPECT_EQ(metrics.counter("service.completed")->value(), 0u);
    EXPECT_EQ(metrics.gauge("service.queue_depth")->value(), 0.0);
}

TEST(JobScheduler, DrainFinishCompletesQueuedWork)
{
    SchedulerOptions opts = smallOptions();
    opts.start_paused = true;
    JobScheduler scheduler(opts);

    std::vector<Submission> subs;
    for (int i = 0; i < 4; ++i)
        subs.push_back(scheduler.submit(
            inlineJob("t", 0, "job" + std::to_string(i),
                      i % 2 ? unsatCnf() : kSatCnf)));

    // FinishQueued implies resume(): the parked backlog still runs.
    scheduler.drain(DrainPolicy::FinishQueued);
    scheduler.waitIdle();
    for (int i = 0; i < 4; ++i) {
        const InstanceRecord rec = scheduler.wait(subs[i].id);
        EXPECT_EQ(rec.status, i % 2 ? "UNSAT" : "SAT") << i;
    }
    scheduler.shutdown(DrainPolicy::FinishQueued);
}

TEST(JobScheduler, ExternalStopTokenTriggersDrain)
{
    StopToken stop;
    SchedulerOptions opts = smallOptions();
    opts.workers = 1;
    opts.start_paused = true;
    opts.external_stop = &stop;
    opts.external_stop_policy = DrainPolicy::CancelPending;
    JobScheduler scheduler(opts);

    std::vector<Submission> subs;
    for (int i = 0; i < 4; ++i)
        subs.push_back(scheduler.submit(
            inlineJob("t", 0, "job" + std::to_string(i), kSatCnf)));

    stop.requestStop();
    scheduler.waitIdle(); // the watcher drains; nothing ever ran
    EXPECT_TRUE(scheduler.draining());
    for (const Submission &sub : subs)
        EXPECT_EQ(scheduler.wait(sub.id).status, "CANCELLED");
    scheduler.shutdown(DrainPolicy::CancelPending);
}

TEST(JobScheduler, RetentionEvictsOldestRecords)
{
    SchedulerOptions opts = smallOptions();
    opts.workers = 1;
    opts.max_retained_records = 2;
    JobScheduler scheduler(opts);

    std::vector<Submission> subs;
    for (int i = 0; i < 5; ++i)
        subs.push_back(scheduler.submit(
            inlineJob("t", 0, "job" + std::to_string(i), kSatCnf)));
    scheduler.waitIdle();

    // Only the newest two finished jobs survive; evicted ids answer
    // UNKNOWN instead of growing the map forever.
    EXPECT_EQ(scheduler.completionOrder().size(), 2u);
    EXPECT_EQ(scheduler.wait(subs[0].id).status, "UNKNOWN");
    scheduler.shutdown(DrainPolicy::FinishQueued);
}

TEST(JobScheduler, SoakHundredJobsMultiTenantAccounting)
{
    MetricsRegistry metrics;
    SchedulerOptions opts = smallOptions();
    opts.portfolio.num_workers = 1;
    opts.workers = 4;
    opts.max_queue_depth = 16; // real backpressure under the burst
    opts.metrics = &metrics;
    JobScheduler scheduler(opts);

    // Three tenants hammer the scheduler concurrently; rejected
    // submits are fine (that's the backpressure contract), they just
    // have to be accounted for.
    constexpr int kPerTenant = 34;
    std::atomic<int> accepted{0}, rejected{0};
    std::vector<std::thread> tenants;
    for (int t = 0; t < 3; ++t) {
        tenants.emplace_back([&, t] {
            const std::string tenant = "tenant" + std::to_string(t);
            for (int i = 0; i < kPerTenant; ++i) {
                const Submission sub = scheduler.submit(inlineJob(
                    tenant, t, "job" + std::to_string(i),
                    i % 2 ? unsatCnf() : kSatCnf));
                if (sub.accepted) {
                    accepted.fetch_add(1);
                } else {
                    EXPECT_EQ(sub.reject_reason, "queue_full");
                    rejected.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &t : tenants)
        t.join();
    EXPECT_EQ(accepted.load() + rejected.load(), 3 * kPerTenant);

    scheduler.shutdown(DrainPolicy::FinishQueued);

    // The service-level books balance exactly once idle.
    const auto submitted =
        metrics.counter("service.submitted")->value();
    const auto completed =
        metrics.counter("service.completed")->value();
    const auto rejected_ctr =
        metrics.counter("service.rejected")->value();
    const auto cancelled =
        metrics.counter("service.cancelled")->value();
    EXPECT_EQ(submitted, 3u * kPerTenant);
    EXPECT_EQ(submitted, completed + rejected_ctr + cancelled);
    EXPECT_EQ(completed, static_cast<std::uint64_t>(accepted.load()));
    EXPECT_EQ(metrics.gauge("service.queue_depth")->value(), 0.0);
    // Per-tenant books balance too.
    for (int t = 0; t < 3; ++t) {
        const std::string base =
            "service.tenant.tenant" + std::to_string(t) + ".";
        EXPECT_EQ(metrics.counter(base + "submitted")->value(),
                  static_cast<std::uint64_t>(kPerTenant))
            << base;
    }
    EXPECT_EQ(scheduler.completionOrder().size(),
              static_cast<std::size_t>(accepted.load()));
}

} // namespace
} // namespace hyqsat::service
