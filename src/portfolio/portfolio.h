/**
 * @file
 * Portfolio racing above the hybrid loop: N HybridSolver workers,
 * on the caller's thread and parked race threads (race_threads.h),
 * over the same formula, each with a diversified
 * configuration (sampler backend, reads per sample, seeds,
 * branching, warm-up window, clause-queue shape), first decisive
 * answer wins.
 *
 * Losers are cancelled cooperatively through one shared StopToken
 * threaded into every cancellation point grown for this layer: the
 * CDCL decision/conflict boundaries (src/sat), the hybrid iteration
 * hook (src/core) and the SA sweep loop (src/anneal). Optional
 * clause sharing routes short learnt clauses and first-UIP polarity
 * hints through a bounded ClauseExchange with the solver's
 * root-level import path.
 *
 * Classical precedent: ManySAT/Plingeling-style portfolios, where
 * racing diverse configurations is the cheapest robust speedup on
 * 3-SAT; the paper's own §IV-A randomness (random top-30 clause-
 * queue head) is one of the diversification axes.
 */

#ifndef HYQSAT_PORTFOLIO_PORTFOLIO_H
#define HYQSAT_PORTFOLIO_PORTFOLIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/hybrid_solver.h"
#include "portfolio/exchange.h"
#include "sat/cnf.h"
#include "util/cancel.h"

namespace hyqsat::portfolio {

/** One worker slot: a hybrid configuration plus a display label. */
struct WorkerConfig
{
    std::string label;
    core::HybridConfig hybrid;
};

/** Portfolio-level options. */
struct PortfolioOptions
{
    /** Template configuration diversified across workers. */
    core::HybridConfig base;

    /** Workers racing the formula. */
    int num_workers = 4;

    /**
     * Explicit worker configs; when empty, diversify(base,
     * num_workers) builds the slate.
     */
    std::vector<WorkerConfig> workers;

    /** Wall-clock budget in seconds; 0 = unlimited. */
    double timeout_s = 0.0;

    /** Per-worker conflict budget; negative = unlimited. */
    std::int64_t conflict_budget = -1;

    /**
     * Caller-side cancellation: observed by the watchdog and
     * propagated to every worker. nullptr = none.
     */
    const StopToken *external_stop = nullptr;

    /** Share short learnt clauses + polarity hints across workers. */
    bool share_clauses = true;

    /** Max literals of a shared clause (ManySAT shares len <= 2). */
    int share_max_len = 2;

    /** Exchange ring capacity (oldest dropped on overflow). */
    int share_capacity = 4096;

    /** Seed exporters' first-UIP polarity into importers' phases. */
    bool share_polarity = true;

    /**
     * Observability: each worker records into a private registry
     * (no cross-thread contention on the hot handles); after the
     * race the per-worker registries are merged here along with the
     * portfolio-level counters (races, decisions, timeouts, win
     * counts per label, clause-exchange totals) and the wall,
     * cancel-latency and start-latency timers (start latency: race
     * start to the last slot's call into its solve). Worker
     * start/done/winner events stream to this
     * registry's trace sink live. nullptr records nothing.
     */
    MetricsRegistry *metrics = nullptr;
};

/** Per-worker outcome (losers report whatever they had at stop). */
struct WorkerReport
{
    std::string label;
    sat::lbool status = sat::l_Undef;
    bool winner = false;
    double seconds = 0.0; ///< slot wall clock, start to return
    std::uint64_t iterations = 0;
    std::uint64_t conflicts = 0;
    int qa_samples = 0;
    std::uint64_t exported_clauses = 0;
    std::uint64_t imported_clauses = 0;
};

/** Result of a portfolio race. */
struct PortfolioResult
{
    sat::lbool status = sat::l_Undef;
    std::vector<bool> model; ///< valid when status.isTrue()

    int winner = -1; ///< index into workers; -1 = nobody decided
    std::string winner_label;
    core::HybridResult winner_result; ///< full breakdown of the winner

    double wall_s = 0.0;

    /**
     * Seconds from the winner publishing its answer to the last
     * loser returning (the cooperative-cancellation latency; the
     * acceptance bar is < 50 ms).
     */
    double cancel_latency_s = 0.0;

    bool timed_out = false;      ///< the timeout watchdog fired
    bool external_stopped = false; ///< caller's token tripped first

    std::vector<WorkerReport> workers;
    ExchangeStats exchange;
};

/** Diverse-config racing solver. */
class PortfolioSolver
{
  public:
    explicit PortfolioSolver(PortfolioOptions opts);

    /**
     * Race the formula. Returns the first decisive answer (SAT
     * models are verified; UNSAT is trusted from any worker since
     * every config runs a sound CDCL core). With one worker and no
     * sharing this reproduces HybridSolver::solve bit for bit.
     */
    PortfolioResult solve(const sat::Cnf &formula);

    /**
     * The nine-slot diversification table: slot 0 is the base
     * config unchanged (so a 1-worker portfolio is exactly the
     * single solver); later slots vary sampler backend, reads per
     * sample, branching, warm-up, clause-queue head selection and
     * inprocessing strength, each with decorrelated seeds. Cycles
     * with fresh seeds past the table (slot i is row i % 9).
     */
    static std::vector<WorkerConfig>
    diversify(const core::HybridConfig &base, int n);

    const PortfolioOptions &options() const { return opts_; }

  private:
    PortfolioOptions opts_;
};

} // namespace hyqsat::portfolio

#endif // HYQSAT_PORTFOLIO_PORTFOLIO_H
