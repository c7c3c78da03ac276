/**
 * @file
 * Portfolio racing above the hybrid loop: N HybridSolver workers,
 * on the caller's thread and parked race threads (race_threads.h),
 * over the same formula, each with a diversified
 * configuration (sampler backend, seeds, warm-up window,
 * inprocessing strength), first decisive answer wins.
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
 * queue head) differs per slot through the slot's seed.
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
     * Caller-side cancellation: the parent of the race's own token,
     * so a trip reaches every worker at its next cancellation
     * point. nullptr = none.
     */
    const StopToken *external_stop = nullptr;

    /**
     * Share short learnt clauses across workers through a
     * ClauseExchange with its default options (clauses of at most 2
     * literals, the ManySAT finding; a 4096-entry ring), and seed
     * each importer's phases with the exporter's first-UIP literal.
     */
    bool share_clauses = true;

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

    bool timed_out = false;        ///< undecided, the timeout fired
    bool external_stopped = false; ///< undecided, caller's token tripped

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
     * The five-slot diversification table: `base` (the base config
     * unchanged, so a 1-worker portfolio is exactly the single
     * solver), `cdcl` (no warm-up), `sa` and `logical` (the other
     * sampler backends) and `presolve` (full inprocessing), each
     * after slot 0 with decorrelated seeds. Cycles with fresh seeds
     * past the table (slot i is row i % 5; from the second cycle on
     * its label gets a "#<i / 5>" suffix).
     */
    static std::vector<WorkerConfig>
    diversify(const core::HybridConfig &base, int n);

    const PortfolioOptions &options() const { return opts_; }

  private:
    PortfolioOptions opts_;
};

} // namespace hyqsat::portfolio

#endif // HYQSAT_PORTFOLIO_PORTFOLIO_H
