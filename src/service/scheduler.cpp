#include "service/scheduler.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "sat/dimacs.h"
#include "simplify/pipeline.h"
#include "topology/topology.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hyqsat::service {

namespace {

/** Buckets for the solve-latency histogram (seconds). */
std::vector<double>
latencyBounds()
{
    return {0.001, 0.01, 0.1, 1.0, 10.0, 60.0};
}

} // namespace

JobScheduler::JobScheduler(SchedulerOptions opts)
    : opts_(std::move(opts))
{
    opts_.workers = std::max(opts_.workers, 1);
    paused_ = opts_.start_paused;
    pool_.reserve(static_cast<std::size_t>(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i)
        pool_.emplace_back([this] { workerLoop(); });
    if (opts_.external_stop)
        stop_watcher_ = std::thread([this] { watchExternalStop(); });
}

JobScheduler::~JobScheduler()
{
    shutdown(DrainPolicy::CancelPending);
}

Counter *
JobScheduler::tenantCounter(const std::string &tenant,
                            const char *what)
{
    if (!opts_.metrics)
        return nullptr;
    return opts_.metrics->counter("service.tenant." + tenant + "." +
                                  what);
}

Submission
JobScheduler::submit(JobSpec spec)
{
    Submission sub;
    std::lock_guard<std::mutex> lock(mutex_);
    if (opts_.metrics) {
        opts_.metrics->counter("service.submitted")->add();
        metricInc(tenantCounter(spec.tenant, "submitted"));
    }

    const char *reject = nullptr;
    if (draining_) {
        reject = "draining";
    } else if (opts_.max_queue_depth > 0 &&
               queued_ >= opts_.max_queue_depth) {
        reject = "queue_full";
    } else if (opts_.max_tenant_depth > 0) {
        const auto it = tenants_.find(spec.tenant);
        if (it != tenants_.end() &&
            it->second.queue.size() >= opts_.max_tenant_depth)
            reject = "tenant_queue_full";
    }
    if (reject) {
        sub.reject_reason = reject;
        if (opts_.metrics) {
            opts_.metrics->counter("service.rejected")->add();
            metricInc(tenantCounter(spec.tenant, "rejected"));
        }
        return sub;
    }

    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->spec = std::move(spec);

    Tenant &tenant = tenants_[job->spec.tenant];
    tenant.priority = job->spec.priority;
    tenant.queue.push_back(job->id);
    jobs_.emplace(job->id, job);
    ++queued_;
    if (opts_.metrics) {
        opts_.metrics->counter("service.accepted")->add();
        opts_.metrics->gauge("service.queue_depth")
            ->set(static_cast<double>(queued_));
    }

    sub.accepted = true;
    sub.id = job->id;
    work_cv_.notify_one();
    return sub;
}

void
JobScheduler::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
        checkExternalStopLocked();
    }
    work_cv_.notify_all();
}

JobState
JobScheduler::state(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? JobState::Done : it->second->state;
}

InstanceRecord
JobScheduler::wait(JobId id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        InstanceRecord rec;
        rec.status = "UNKNOWN";
        return rec;
    }
    const std::shared_ptr<Job> job = it->second;
    done_cv_.wait(lock, [&] { return job->state == JobState::Done; });
    return job->record;
}

void
JobScheduler::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
}

bool
JobScheduler::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

std::size_t
JobScheduler::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_;
}

std::vector<JobId>
JobScheduler::completionOrder() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {completion_order_.begin(), completion_order_.end()};
}

void
JobScheduler::recordCompletionLocked(JobId id)
{
    completion_order_.push_back(id);
    if (opts_.max_retained_records == 0)
        return;
    // Flat memory over a long-running daemon's lifetime: evict the
    // oldest finished records past the retention bound.
    while (completion_order_.size() > opts_.max_retained_records) {
        jobs_.erase(completion_order_.front());
        completion_order_.pop_front();
    }
}

void
JobScheduler::drain(DrainPolicy policy)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        drainLocked(policy);
    }
    work_cv_.notify_all();
    done_cv_.notify_all();
}

void
JobScheduler::drainLocked(DrainPolicy policy)
{
    if (!draining_) {
        draining_ = true;
        drain_policy_ = policy;
    } else if (policy == DrainPolicy::CancelPending) {
        drain_policy_ = policy; // escalate finish -> cancel
    }
    paused_ = false; // a drain always unparks the workers
    if (drain_policy_ != DrainPolicy::CancelPending)
        return;

    // Queued jobs complete as CANCELLED right here (they never run);
    // in-flight jobs get their stop tokens tripped and finish on
    // their own threads.
    for (auto &[name, tenant] : tenants_) {
        for (const JobId id : tenant.queue) {
            const auto it = jobs_.find(id);
            if (it == jobs_.end())
                continue;
            Job &job = *it->second;
            job.cancelled.store(true, std::memory_order_relaxed);
            job.state = JobState::Done;
            job.record.name = job.spec.name;
            job.record.path = job.spec.path;
            job.record.status = "CANCELLED";
            recordCompletionLocked(id);
            --queued_;
            if (opts_.metrics) {
                opts_.metrics->counter("service.cancelled")->add();
                metricInc(tenantCounter(job.spec.tenant, "cancelled"));
            }
        }
        tenant.queue.clear();
    }
    if (opts_.metrics)
        opts_.metrics->gauge("service.queue_depth")
            ->set(static_cast<double>(queued_));
    for (auto &[id, job] : jobs_) {
        if (job->state == JobState::Running) {
            job->cancelled.store(true, std::memory_order_relaxed);
            job->stop.requestStop();
        }
    }
}

void
JobScheduler::checkExternalStopLocked()
{
    if (draining_ || !opts_.external_stop ||
        !opts_.external_stop->stopRequested())
        return;
    drainLocked(opts_.external_stop_policy);
    work_cv_.notify_all();
    done_cv_.notify_all();
}

void
JobScheduler::shutdown(DrainPolicy policy)
{
    watcher_quit_.requestStop();
    if (stop_watcher_.joinable())
        stop_watcher_.join();
    drain(policy);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        joining_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : pool_)
        if (t.joinable())
            t.join();
}

void
JobScheduler::watchExternalStop()
{
    while (!watcher_quit_.stopRequested()) {
        if (opts_.external_stop->stopRequested()) {
            drain(opts_.external_stop_policy);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

std::shared_ptr<JobScheduler::Job>
JobScheduler::nextJobLocked()
{
    // Serve the non-empty tenant with the highest priority;
    // round-robin (least recently served first) among equals.
    Tenant *best = nullptr;
    for (auto &[name, tenant] : tenants_) {
        if (tenant.queue.empty())
            continue;
        if (!best || tenant.priority > best->priority ||
            (tenant.priority == best->priority &&
             tenant.last_served < best->last_served))
            best = &tenant;
    }
    if (!best)
        return nullptr;
    const JobId id = best->queue.front();
    best->queue.pop_front();
    best->last_served = ++serve_clock_;

    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return nullptr;
    const std::shared_ptr<Job> job = it->second;
    job->state = JobState::Running;
    --queued_;
    ++running_;
    if (opts_.metrics)
        opts_.metrics->gauge("service.queue_depth")
            ->set(static_cast<double>(queued_));
    return job;
}

void
JobScheduler::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock, [&] {
            return joining_ || (!paused_ && queued_ > 0);
        });
        if (!paused_ && queued_ > 0) {
            checkExternalStopLocked();
            const std::shared_ptr<Job> job = nextJobLocked();
            if (job) {
                lock.unlock();
                runJob(job);
                lock.lock();
                continue;
            }
        }
        if (joining_ && queued_ == 0)
            return;
    }
}

void
JobScheduler::runJob(const std::shared_ptr<Job> &job)
{
    namespace fs = std::filesystem;
    const JobSpec &spec = job->spec;
    InstanceRecord rec;
    rec.path = spec.path;
    rec.name = !spec.name.empty()
                   ? spec.name
                   : fs::path(spec.path).stem().string();

    // Private per-job registry: snapshotted into the record, then
    // merged into the service registry under the metrics lock.
    MetricsRegistry inst_metrics;
    if (opts_.metrics)
        inst_metrics.setTrace(opts_.metrics->trace());
    inst_metrics.timer("service.queue_wait")->add(job->accepted.seconds());

    const Timer timer;
    const auto parsed =
        !spec.dimacs.empty()
            ? sat::parseDimacs(std::string_view(spec.dimacs))
            : sat::parseDimacsFile(spec.path);
    if (!parsed) {
        inst_metrics.timer("service.parse")->add(timer.seconds());
        rec.status = "PARSE_ERROR";
        rec.wall_s = timer.seconds();
        job->record = std::move(rec);
        finishJob(job, opts_.metrics ? &inst_metrics : nullptr);
        return;
    }
    sat::Cnf cnf = *parsed;
    rec.vars = cnf.numVars();
    rec.clauses = cnf.numClauses();
    if (!cnf.isThreeSat())
        cnf = sat::toThreeSat(cnf);
    inst_metrics.timer("service.parse")->add(timer.seconds());

    portfolio::PortfolioOptions popts = opts_.portfolio;
    const double timeout = spec.timeout_s > 0.0
                               ? spec.timeout_s
                               : opts_.default_timeout_s;
    if (timeout > 0.0)
        popts.timeout_s = timeout;
    popts.external_stop = &job->stop;
    popts.metrics = &inst_metrics;

    // Per-job overrides retarget the base config and any explicit
    // worker slate before diversification; the record echoes the
    // effective base values.
    core::applyOverrides(spec.overrides, popts.base);
    for (portfolio::WorkerConfig &w : popts.workers)
        core::applyOverrides(spec.overrides, w.hybrid);
    rec.simplify = simplify::strengthName(popts.base.simplify_strength);
    rec.topology = topology::kindName(popts.base.topology);
    rec.reads_groups = popts.base.reads_groups;

    const int workers = popts.workers.empty()
                            ? popts.num_workers
                            : static_cast<int>(popts.workers.size());
    if (opts_.memory_budget_mb > 0 &&
        estimateMemoryMb(cnf, workers) > opts_.memory_budget_mb) {
        rec.status = "SKIPPED";
        rec.wall_s = timer.seconds();
        job->record = std::move(rec);
        finishJob(job, opts_.metrics ? &inst_metrics : nullptr);
        return;
    }

    portfolio::PortfolioSolver solver(popts);
    const portfolio::PortfolioResult result = solver.solve(cnf);
    rec.wall_s = timer.seconds();

    if (result.status.isTrue())
        rec.status = "SAT";
    else if (result.status.isFalse())
        rec.status = "UNSAT";
    else if (result.timed_out)
        rec.status = "TIMEOUT";
    else if (job->cancelled.load(std::memory_order_relaxed))
        rec.status = "CANCELLED";
    else
        rec.status = "UNKNOWN";

    if (result.winner >= 0) {
        rec.winner = result.winner_label;
        const core::HybridResult &w = result.winner_result;
        rec.iterations = w.stats.iterations;
        rec.conflicts = w.stats.conflicts;
        rec.qa_samples = w.qa_samples;
        rec.frontend_s = w.time.frontend_s;
        rec.qa_device_s = w.time.qa_device_s;
        rec.backend_s = w.time.backend_s;
        rec.cdcl_s = w.time.cdcl_s;
    }

    // All-worker totals and the full per-job snapshot come from the
    // registry even when nobody decided (a timeout still did
    // measurable work).
    rec.restarts = inst_metrics.counter("solver.restarts")->value();
    rec.propagations =
        inst_metrics.counter("solver.propagations")->value();
    rec.metrics = inst_metrics.snapshot();
    job->record = std::move(rec);
    finishJob(job, opts_.metrics ? &inst_metrics : nullptr);
}

void
JobScheduler::finishJob(const std::shared_ptr<Job> &job,
                        MetricsRegistry *job_metrics)
{
    if (opts_.metrics) {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        MetricsRegistry &m = *opts_.metrics;
        if (job_metrics)
            m.merge(*job_metrics);
        const bool cancelled = job->record.status == "CANCELLED";
        m.counter(cancelled ? "service.cancelled"
                            : "service.completed")
            ->add();
        metricInc(tenantCounter(job->spec.tenant, cancelled
                                                      ? "cancelled"
                                                      : "completed"));
        m.histogram("service.solve_latency", latencyBounds())
            ->record(job->record.wall_s);
        if (TraceSink *trace = m.trace()) {
            trace->event(
                "service.job_done",
                {{"wall_s", job->record.wall_s},
                 {"conflicts",
                  static_cast<double>(job->record.conflicts)}},
                {{"name", job->record.name},
                 {"tenant", job->spec.tenant},
                 {"status", job->record.status}});
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->state = JobState::Done;
        recordCompletionLocked(job->id);
        --running_;
    }
    done_cv_.notify_all();
}

} // namespace hyqsat::service
