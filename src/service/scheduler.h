/**
 * @file
 * Multi-tenant job scheduler: the persistent heart of the solver
 * service. Accepts DIMACS jobs from many clients (tenants), applies
 * admission control (bounded global and per-tenant queue depth —
 * backpressure is a reject-with-reason, never an unbounded queue),
 * orders work by per-tenant priority with round-robin fairness among
 * equals, and runs each job on a pool of workers as one
 * portfolio::PortfolioSolver race with per-job timeout and memory
 * budgets. Graceful drain rides the StopToken machinery: stop
 * accepting, then finish or cancel in-flight work by policy.
 *
 * The one-shot batch CLI (through service::BatchRunner, a thin
 * client) and the long-running daemon share this one scheduling,
 * budgeting and reporting core.
 *
 * Metrics (when a registry is attached): global and per-tenant
 * service.submitted / accepted / rejected / completed / cancelled
 * counters with the invariant submitted == rejected + completed +
 * cancelled once idle, a service.queue_depth gauge, a
 * service.solve_latency histogram, and per job a service.queue_wait
 * timer (accepted SUBMIT to the job's start) and a service.parse
 * timer (DIMACS parse plus the 3-SAT conversion).
 */

#ifndef HYQSAT_SERVICE_SCHEDULER_H
#define HYQSAT_SERVICE_SCHEDULER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "portfolio/portfolio.h"
#include "service/job.h"
#include "service/report.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace hyqsat::service {

/** Scheduler configuration. */
struct SchedulerOptions
{
    /** Portfolio configuration applied per job. */
    portfolio::PortfolioOptions portfolio;

    /** Jobs solved concurrently (pool threads). Each one races
     *  portfolio.num_workers solvers: one on the pool thread, the
     *  rest on portfolio::RaceThreads. */
    int workers = 2;

    /**
     * Admission control: reject ("queue_full") when this many jobs
     * are queued and not yet running. 0 = unbounded (batch mode).
     */
    std::size_t max_queue_depth = 0;

    /** Per-tenant bound ("tenant_queue_full"); 0 = unbounded. */
    std::size_t max_tenant_depth = 0;

    /** Default per-job wall-clock budget (s); 0 = unlimited.
     *  JobSpec::timeout_s overrides when set. */
    double default_timeout_s = 0.0;

    /**
     * Per-job memory budget in MB, enforced as an admission guard on
     * the parsed formula's estimated footprint; 0 = unlimited. Jobs
     * over budget end SKIPPED — a soft budget, but one that can
     * never OOM the service.
     */
    std::size_t memory_budget_mb = 0;

    /**
     * Caller-side stop (e.g. a signal handler's token), nullptr =
     * none. Every job's token is its child, so a trip stops running
     * solves at once and they end CANCELLED; the queue drains with
     * CancelPending at the scheduler's next worker pickup, resume(),
     * wait() or waitIdle().
     */
    const StopToken *external_stop = nullptr;

    /**
     * Finished-job records retained for wait()/state() queries; the
     * oldest are evicted past this bound so a long-running daemon's
     * memory stays flat. 0 = keep everything (batch mode, where the
     * runner collects every record).
     */
    std::size_t max_retained_records = 4096;

    /**
     * Start with the workers parked: submissions queue up (admission
     * control applies) but nothing runs until resume(). Tests use
     * this to fill queues deterministically.
     */
    bool start_paused = false;

    /**
     * Observability: each job solves against a private registry
     * (snapshotted into its InstanceRecord), then merges here under
     * the scheduler's lock, alongside the service.* counters above.
     * Job begin/done events stream to this registry's trace sink.
     * nullptr records nothing.
     */
    MetricsRegistry *metrics = nullptr;
};

/** The multi-tenant scheduler (thread-safe; owns its worker pool). */
class JobScheduler
{
  public:
    explicit JobScheduler(SchedulerOptions opts);

    /** Drains with CancelPending and joins the pool. */
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /**
     * Submit one job. Admission control answers immediately: an
     * accepted job is queued (its id can be waited on); a rejected
     * one carries the reason and was never queued.
     */
    Submission submit(JobSpec spec);

    /** Unpark the workers (no-op unless start_paused). */
    void resume();

    /** Current lifecycle state (Done for unknown ids). */
    JobState state(JobId id) const;

    /**
     * Block until the job finishes, then return its record. Unknown
     * ids return a record with status "UNKNOWN".
     */
    InstanceRecord wait(JobId id);

    /** Block until every accepted job has finished. */
    void waitIdle();

    /**
     * Stop accepting new work (submits reject with "draining") and
     * dispose of accepted work by policy: FinishQueued runs
     * everything already queued to completion; CancelPending cancels
     * queued jobs outright and trips the StopToken of every
     * in-flight solve. Idempotent; returns without blocking — use
     * waitIdle()/shutdown() to wait for quiescence. Implies
     * resume().
     */
    void drain(DrainPolicy policy);

    /** drain(policy) + waitIdle() + join the worker pool. */
    void shutdown(DrainPolicy policy = DrainPolicy::CancelPending);

    bool draining() const;

    /** Jobs queued and not yet picked up. */
    std::size_t queueDepth() const;

    /**
     * Ids in the order jobs finished (diagnostics/tests; stable once
     * idle).
     */
    std::vector<JobId> completionOrder() const;

    const SchedulerOptions &options() const { return opts_; }

  private:
    struct Job
    {
        explicit Job(const StopToken *external) : stop(external) {}

        JobId id = 0;
        JobSpec spec;
        JobState state = JobState::Queued;
        StopToken stop; ///< tripped by a drain; child of external_stop
        InstanceRecord record;
        Timer accepted; ///< started when submit() accepted the job
    };

    /** One tenant's slice: a FIFO of job ids plus its priority. */
    struct Tenant
    {
        int priority = 0;
        std::uint64_t last_served = 0; ///< round-robin clock
        std::deque<JobId> queue;       ///< guarded by mutex_
    };

    void workerLoop();
    std::shared_ptr<Job> nextJobLocked();
    void runJob(const std::shared_ptr<Job> &job);
    void finishJob(const std::shared_ptr<Job> &job,
                   MetricsRegistry *job_metrics);
    void recordCompletionLocked(JobId id);
    void drainLocked(DrainPolicy policy);

    /**
     * Drain with CancelPending now (mutex held) if the external
     * token tripped and no drain has started yet, so a tripped token
     * never lets a queued job start.
     */
    void checkExternalStopLocked();
    Counter *tenantCounter(const std::string &tenant,
                           const char *what);

    SchedulerOptions opts_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_; ///< workers park here
    std::condition_variable done_cv_; ///< wait()/waitIdle() park here
    bool paused_ = false;
    bool draining_ = false;
    DrainPolicy drain_policy_ = DrainPolicy::FinishQueued;
    bool joining_ = false;

    JobId next_id_ = 1;
    std::uint64_t serve_clock_ = 0;
    std::size_t queued_ = 0;  ///< accepted, not yet running
    std::size_t running_ = 0; ///< in flight
    std::map<std::string, Tenant> tenants_;
    std::map<JobId, std::shared_ptr<Job>> jobs_;
    std::deque<JobId> completion_order_;

    std::vector<std::thread> pool_;

    std::mutex metrics_mutex_; ///< serializes merges into opts_.metrics
};

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_SCHEDULER_H
