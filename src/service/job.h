/**
 * @file
 * Job vocabulary of the solver service: what a client submits
 * (JobSpec), what admission control answers (Submission), and the
 * lifecycle a job moves through (JobState). Shared by the scheduler,
 * the socket server and the batch runner.
 */

#ifndef HYQSAT_SERVICE_JOB_H
#define HYQSAT_SERVICE_JOB_H

#include <cstdint>
#include <string>

namespace hyqsat::service {

/** Monotonic per-scheduler job identifier (0 = invalid). */
using JobId = std::uint64_t;

/** Lifecycle: Queued -> Running -> Done (one way). */
enum class JobState { Queued, Running, Done };

/** One unit of work a client hands the service. */
struct JobSpec
{
    /** Tenant the job belongs to (metrics + scheduling bucket). */
    std::string tenant = "default";

    /**
     * Tenant priority: the scheduler always serves the non-empty
     * tenant queue with the highest priority, round-robin among
     * ties. A tenant's priority is (re)set by its latest submit.
     */
    int priority = 0;

    /** Display name for reports ("" = derived from the path stem). */
    std::string name;

    /**
     * The formula, one of two forms: in-memory DIMACS text (the
     * socket path — never touches the filesystem), or a path to a
     * DIMACS file (the batch path). `dimacs` wins when both are set.
     */
    std::string dimacs;
    std::string path;

    /** Per-job wall-clock budget (s); 0 = scheduler default. */
    double timeout_s = 0.0;

    /**
     * Inprocessing strength override ("off", "light", "full"); ""
     * keeps the scheduler's configured portfolio defaults. Applied
     * to every worker's base config before diversification.
     */
    std::string simplify;

    /**
     * Hardware-topology override ("chimera", "pegasus"); "" keeps
     * the scheduler's configured default. Applied like simplify.
     */
    std::string topology;

    /**
     * Parallel lockstep-group override for the extra reads: >= 0
     * pins HybridConfig::reads_groups (0 = auto-sized groups of up
     * to 8 lanes), -1 keeps the scheduler's configured default.
     */
    int reads_groups = -1;
};

/** Admission-control verdict for one submit. */
struct Submission
{
    bool accepted = false;
    JobId id = 0;             ///< valid iff accepted
    std::string reject_reason; ///< "queue_full", "tenant_queue_full",
                               ///< "draining" (empty iff accepted)
};

/** What to do with accepted-but-unfinished jobs on drain. */
enum class DrainPolicy {
    FinishQueued,  ///< stop accepting; run everything already accepted
    CancelPending, ///< stop accepting; cancel queued + in-flight jobs
};

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_JOB_H
