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

#include <cstddef>
#include <string>
#include <vector>

#include "portfolio/portfolio.h"
#include "service/report.h"
#include "util/cancel.h"
#include "util/metrics.h"

namespace hyqsat::service {

/** Batch-service options. */
struct BatchOptions
{
    /** Portfolio configuration applied per instance. */
    portfolio::PortfolioOptions portfolio;

    /** Instances solved concurrently (pool threads). Each one runs
     *  portfolio.num_workers solver threads of its own. */
    int concurrency = 2;

    /** Per-instance wall-clock budget (seconds); 0 = unlimited.
     *  Overrides portfolio.timeout_s when set. */
    double instance_timeout_s = 0.0;

    /**
     * Per-instance memory budget in MB, enforced as an admission
     * guard on the parsed formula's estimated footprint (clause
     * arena + watches + per-worker duplication); 0 = unlimited.
     * Instances over budget are SKIPPED, not attempted — a soft
     * budget, but one that can never OOM the service.
     */
    std::size_t memory_budget_mb = 0;

    /** Caller-side cancellation for the whole batch (e.g. the
     *  SIGINT/SIGTERM token): stops accepting queued instances and
     *  cancels in-flight solves, leaving their records UNKNOWN. */
    const StopToken *external_stop = nullptr;

    /**
     * Observability: each instance solves against a private registry
     * (snapshotted into its InstanceRecord), then merges here — so
     * the file a CLI dumps holds whole-batch totals. Instance done
     * events stream to this registry's trace sink. nullptr records
     * nothing.
     */
    MetricsRegistry *metrics = nullptr;
};

/** The batch service: a one-shot client of JobScheduler. */
class BatchRunner
{
  public:
    explicit BatchRunner(BatchOptions opts);

    /** Solve every path; records come back in input order. */
    BatchReport run(const std::vector<std::string> &paths);

  private:
    BatchOptions opts_;
};

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_BATCH_RUNNER_H
