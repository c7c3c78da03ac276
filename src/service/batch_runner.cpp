#include "service/batch_runner.h"

#include <algorithm>

#include "service/scheduler.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hyqsat::service {

BatchRunner::BatchRunner(BatchOptions opts) : opts_(std::move(opts))
{
    opts_.concurrency = std::max(opts_.concurrency, 1);
}

BatchReport
BatchRunner::run(const std::vector<std::string> &paths)
{
    const Timer wall;
    BatchReport report;
    report.records.resize(paths.size());

    SchedulerOptions sopts;
    sopts.portfolio = opts_.portfolio;
    sopts.workers = std::min<int>(
        opts_.concurrency,
        static_cast<int>(std::max<std::size_t>(paths.size(), 1)));
    sopts.default_timeout_s = opts_.instance_timeout_s;
    sopts.memory_budget_mb = opts_.memory_budget_mb;
    sopts.external_stop = opts_.external_stop;
    sopts.external_stop_policy = DrainPolicy::CancelPending;
    sopts.metrics = opts_.metrics;
    sopts.max_retained_records = 0; // the batch keeps every record
    // Park the workers until every path is queued: cancellation (a
    // pre-tripped external token) then deterministically cancels the
    // whole batch instead of racing the first few solves.
    sopts.start_paused = true;

    JobScheduler scheduler(sopts);
    std::vector<JobId> ids;
    ids.reserve(paths.size());
    for (const std::string &path : paths) {
        JobSpec spec;
        spec.tenant = "batch";
        spec.path = path;
        const Submission sub =
            scheduler.submit(std::move(spec));
        // A rejected submit (drain already started) keeps id 0; its
        // record stays default and reports UNKNOWN below.
        ids.push_back(sub.accepted ? sub.id : 0);
    }
    scheduler.resume();

    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (ids[i] == 0)
            continue;
        InstanceRecord rec = scheduler.wait(ids[i]);
        if (rec.status == "CANCELLED") {
            // Batch semantics predate the service layer: an instance
            // the batch never answered is UNKNOWN, with the default
            // (empty) record the pre-refactor runner produced.
            rec = InstanceRecord{};
        }
        report.records[i] = std::move(rec);
    }
    scheduler.shutdown(DrainPolicy::FinishQueued);

    report.wall_s = wall.seconds();
    for (InstanceRecord &rec : report.records) {
        if (rec.status.empty())
            rec.status = "UNKNOWN"; // cancelled before it was picked up
        tallyRecord(report, rec);
    }
    return report;
}

} // namespace hyqsat::service
