/**
 * @file
 * Batch DIMACS service: streams many instances (directory, file
 * list, or stdin manifest) through portfolio workers, with
 * per-instance timeout and memory budgets, structured per-instance
 * result records and JSON/CSV report output.
 *
 * A thin client of JobScheduler: the runner submits every path as a
 * job of the "batch" tenant, waits for the records in input order,
 * and tallies them into a BatchReport; service/report.h holds the
 * report writers and the path helpers. The scheduling, budgeting,
 * cancellation and metrics machinery is shared with the persistent
 * daemon.
 */

#ifndef HYQSAT_SERVICE_BATCH_RUNNER_H
#define HYQSAT_SERVICE_BATCH_RUNNER_H

#include <string>
#include <vector>

#include "service/report.h"
#include "service/scheduler.h"

namespace hyqsat::service {

/** The batch service: a one-shot client of JobScheduler. */
class BatchRunner
{
  public:
    /**
     * The scheduler options of the batch (SchedulerOptions::workers
     * instances solved concurrently, default_timeout_s per instance,
     * external_stop cancelling the rest of the batch, leaving its
     * records UNKNOWN; metrics holds whole-batch totals). run()
     * clamps workers to [1, number of paths] and overrides two
     * fields: max_retained_records = 0, so every record is kept, and
     * start_paused = true, so the workers start only once every path
     * is queued.
     */
    explicit BatchRunner(SchedulerOptions opts);

    /** Solve every path; records come back in input order. */
    BatchReport run(const std::vector<std::string> &paths);

  private:
    SchedulerOptions opts_;
};

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_BATCH_RUNNER_H
