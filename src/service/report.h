/**
 * @file
 * Structured result records shared by every client of the solver
 * service: the per-job InstanceRecord (one report row), the
 * whole-batch BatchReport, and the JSON/CSV report writers that used
 * to live in the batch CLI. One definition, three consumers — the
 * batch runner, the daemon, and the tests — so report formats can
 * never drift between front doors.
 */

#ifndef HYQSAT_SERVICE_REPORT_H
#define HYQSAT_SERVICE_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace hyqsat::sat {
class Cnf;
}

namespace hyqsat::service {

/** One job's outcome (a row of a batch report). */
struct InstanceRecord
{
    std::string name; ///< file stem or client-supplied job name
    std::string path; ///< source path ("" for in-memory submissions)

    /**
     * "SAT", "UNSAT", "UNKNOWN" (budget exhausted), "TIMEOUT"
     * (wall-clock budget fired), "SKIPPED" (memory budget),
     * "CANCELLED" (drained before or during the solve),
     * "PARSE_ERROR".
     */
    std::string status;

    std::string winner; ///< winning worker label ("" if none)

    /**
     * Effective inprocessing strength of the run's base config
     * ("off", "light", "full"); individual portfolio slots may still
     * diversify around it.
     */
    std::string simplify;

    /** Effective hardware topology ("chimera", "pegasus"). */
    std::string topology;

    /**
     * Effective parallel lockstep-group setting of the extra reads
     * (0 = auto-sized groups of up to 8 lanes).
     */
    int reads_groups = 0;

    double wall_s = 0.0;
    int vars = 0;
    int clauses = 0;
    std::uint64_t iterations = 0;
    std::uint64_t conflicts = 0;
    int qa_samples = 0;

    /** Totals over every raced worker (from the job registry). */
    std::uint64_t restarts = 0;
    std::uint64_t propagations = 0;

    /** Winner's host/device time breakdown (zeros if no winner). */
    double frontend_s = 0.0;
    double qa_device_s = 0.0;
    double backend_s = 0.0;
    double cdcl_s = 0.0;

    /**
     * Flat snapshot of the job's full metrics registry (portfolio +
     * solver + pipeline + backend), embedded as the "metrics" object
     * of the JSON report row.
     */
    std::vector<std::pair<std::string, double>> metrics;
};

/** Whole-batch outcome. */
struct BatchReport
{
    std::vector<InstanceRecord> records; ///< input order
    double wall_s = 0.0;
    int sat = 0;
    int unsat = 0;
    int unknown = 0;
    int timeouts = 0;
    int skipped = 0;
    int errors = 0;

    /** True iff every instance decided (no UNKNOWN/TIMEOUT/error). */
    bool allDecided() const
    {
        return unknown == 0 && timeouts == 0 && skipped == 0 &&
               errors == 0;
    }
};

/**
 * Tally @p rec into the report's summary counters ("CANCELLED"
 * counts as unknown: the batch never got an answer).
 */
void tallyRecord(BatchReport &report, const InstanceRecord &rec);

/** Write the batch report as one JSON document (NaN/Inf-safe). */
void writeJsonReport(const BatchReport &report, std::ostream &out);

/** Write the batch report as CSV (header + one row per record). */
void writeCsvReport(const BatchReport &report, std::ostream &out);

/** Every *.cnf / *.dimacs file under @p dir (sorted). */
std::vector<std::string> collectCnfFiles(const std::string &dir);

/** One path per non-empty, non-comment ('#') line. */
std::vector<std::string> readManifest(std::istream &in);

/** Estimated solve-time footprint of a formula (MB). */
std::size_t estimateMemoryMb(const sat::Cnf &cnf, int num_workers);

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_REPORT_H
