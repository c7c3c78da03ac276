/**
 * @file
 * The HyQSAT hybrid solver (§III): classic CDCL whose warm-up
 * iterations are accelerated by a (simulated) quantum annealer. At
 * each of the first sqrt(K) decision iterations the frontend ships
 * the hardest unsatisfied clauses to the annealer and the backend
 * interprets the sampled energy to prune the CDCL search; the
 * remaining iterations run as plain CDCL.
 *
 * This header holds the configuration, the result types and the
 * HybridSolver entry point. The loop itself has one implementation,
 * core::Session (core/session.h): HybridSolver::solve runs it as a
 * one-shot session with no assumptions, and openSession() hands out
 * an incremental one.
 */

#ifndef HYQSAT_CORE_HYBRID_SOLVER_H
#define HYQSAT_CORE_HYBRID_SOLVER_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anneal/annealer.h"
#include "anneal/sampler.h"
#include "chimera/chimera.h"
#include "core/backend.h"
#include "core/frontend.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "simplify/pipeline.h"
#include "util/cancel.h"
#include "util/metrics.h"

namespace hyqsat::core {

/** Full configuration of a hybrid run. */
struct HybridConfig
{
    sat::SolverOptions solver = sat::SolverOptions::minisatStyle();

    /** Device model; num_reads/reads_groups below replace its own. */
    anneal::QuantumAnnealer::Options annealer;
    FrontendOptions frontend;
    BackendOptions backend;

    /**
     * Hardware topology family: Chimera (default) or the
     * Pegasus-style higher-degree graph (shorter chains, larger
     * embeddable clause queues). See topology::Topology.
     */
    topology::Kind topology = topology::Kind::Chimera;

    /** Topology cell grid (D-Wave 2000Q by default). */
    int chimera_rows = 16;
    int chimera_cols = 16;
    int chimera_shore = 4;

    /**
     * Sample through the hardware embedding (true) or the ideal
     * all-to-all logical device (false). The §VI-B noise-free
     * simulator corresponds to embedding with a noise-free model.
     */
    bool use_embedding = true;

    /**
     * Warm-up length: < 0 selects the paper's sqrt(K) policy with K
     * estimated from the formula size; >= 0 forces a length (0
     * degenerates to plain CDCL).
     */
    std::int64_t warmup_override = -1;

    /** Upper bound on warm-up iterations regardless of policy. */
    std::int64_t max_warmup = 4096;

    /**
     * Sampling backend by name: "sync"/"qa" (blocking device model,
     * the classic loop), "logical", "sa", "batch", "async" or
     * "async:<backend>". See anneal::makeSampler.
     */
    std::string sampler = "sync";

    /**
     * Max in-flight samples. 1 = the classic blocking loop; >= 2
     * wraps the named backend in an AsyncSampler worker thread so
     * device latency overlaps with CDCL search.
     */
    int pipeline_depth = 1;

    /** Independent seeds raced by the "batch" backend. */
    int batch_samples = 4;

    /**
     * Annealing reads per device sample and the parallel lockstep
     * groups the extra reads split into (0 = auto). The sampler spec
     * copies both into the annealer options, which document them.
     */
    int num_reads = 1;
    int reads_groups = 0;

    /** Modeled network round trip per async sample (microseconds). */
    double rtt_us = 0.0;

    std::uint64_t seed = 0x47a9be57;

    /**
     * Inprocessing strength applied to the formula before the
     * hybrid loop. Off (the default) keeps existing runs bit
     * identical; Light runs the equivalence-preserving passes;
     * Full adds probing, vivification and bounded variable
     * elimination (resolvents capped at 3 literals, so 3-SAT input
     * stays 3-SAT). Models are mapped back to the original
     * variables and verified against the original formula.
     */
    simplify::Strength simplify_strength = simplify::Strength::Off;

    // ------------------------------------------------------------------
    // Portfolio integration (all optional; defaults = standalone run)
    // ------------------------------------------------------------------

    /**
     * Cooperative stop token observed at every CDCL decision /
     * conflict boundary, once per SA sweep inside every sampler
     * backend (a sample it cuts short is dropped, never applied)
     * and at the sampler's blocking wait points. A racing portfolio
     * shares one token across workers; solve() returns l_Undef
     * shortly after it trips. Never written here.
     */
    const StopToken *stop = nullptr;

    /**
     * Export tap for clause sharing: called for every clause the
     * CDCL layer learns (asserting literal first). The callee must
     * be thread-safe w.r.t. itself; it runs on the solving thread.
     */
    std::function<void(const sat::LitVec &)> learnt_export;

    /**
     * Root-level hook (decision level 0, after simplification):
     * the sound import point for shared clauses and polarity hints
     * (sat::Solver::importClause / suggestPhase).
     */
    std::function<void(sat::Solver &)> root_hook;

    /**
     * Observability: every session records its counters, phase
     * timers and histograms into its own registry (the single
     * source of truth HybridResult's time/stat fields are views
     * over) and, when this is non-null, merges that registry here
     * when it closes — at the end of every one-shot solve(), so
     * repeated solves accumulate and a CLI can dump one JSON file.
     * Trace events stream to this registry's sink live.
     */
    MetricsRegistry *metrics = nullptr;
};

/**
 * Host/device time breakdown (Fig. 11). A view assembled from the
 * solve's metrics registry (pipeline.* timers + backend.apply +
 * hybrid.cdcl), not an independently maintained copy.
 */
struct TimeBreakdown
{
    double frontend_s = 0.0;   ///< queue + encode + embed (host)
    double qa_device_s = 0.0;  ///< modeled annealer time
    double backend_s = 0.0;    ///< classification + feedback (host)
    double cdcl_s = 0.0;       ///< remaining CDCL search (host)
    double qa_host_s = 0.0;    ///< SA simulation cost (excluded from
                               ///< the modeled end-to-end time)

    /** Wall-clock seconds samples spent in flight (sum; Fig. 11). */
    double qa_inflight_s = 0.0;

    /**
     * Modeled device time NOT hidden behind concurrent CDCL work.
     * Equals qa_device_s for the blocking depth-1 loop; with the
     * async pipeline only the non-overlapped remainder is charged.
     */
    double qa_blocking_s = 0.0;

    /** Iterations that found the sampling pipeline full. */
    int stalls = 0;

    /** Modeled end-to-end time: host work + device time (serial). */
    double
    endToEnd() const
    {
        return frontend_s + qa_device_s + backend_s + cdcl_s;
    }

    /**
     * Modeled end-to-end time when in-flight device latency overlaps
     * with search: only the blocking device remainder is charged.
     */
    double
    endToEndPipelined() const
    {
        return frontend_s + qa_blocking_s + backend_s + cdcl_s;
    }
};

/** Result of a hybrid run. */
struct HybridResult
{
    sat::lbool status;
    std::vector<bool> model; ///< valid when status.isTrue()
    sat::SolverStats stats;  ///< CDCL counters (iterations etc.)
    TimeBreakdown time;

    int warmup_iterations = 0; ///< QA-assisted iterations executed
    int qa_samples = 0;    ///< samples applied by the backend
    int qa_submitted = 0;  ///< jobs handed to the sampler
    int qa_stale = 0;      ///< completions discarded as stale
    int chain_breaks = 0;  ///< accumulated over all samples

    /** Times each feedback strategy fired (index 1..4). */
    std::array<std::uint64_t, 5> strategy_count{};

    /** True when strategy 1 produced the model. */
    bool solved_by_qa = false;
};

class Session;

/** The hybrid solver. */
class HybridSolver
{
  public:
    explicit HybridSolver(const HybridConfig &config = {});

    /**
     * Solve a formula end to end: a one-shot Session over this
     * solver's config and topology that reads @p formula in place
     * and solves it once with no assumptions. Safe to call
     * repeatedly (and on different formulas): every call opens a
     * fresh session, so a second solve() reproduces the first bit
     * for bit — no pipeline/epoch state leaks across calls
     * (regression-tested). The registry in HybridConfig::metrics
     * receives the same keys a session does, minus the session.*
     * counters.
     */
    HybridResult solve(const sat::Cnf &formula);

    /**
     * Open an incremental session sharing this solver's
     * configuration: IPASIR-style solve(assumptions) calls with
     * clause addition between them, retaining CDCL and sampling
     * state across calls (see core/session.h). The session copies
     * the config and shares the immutable topology, so it is
     * independent of this HybridSolver.
     */
    std::unique_ptr<Session> openSession() const;

    /**
     * The paper's iteration estimate K for the sqrt(K) warm-up
     * policy, fit to the scale of Table I's CDCL iteration counts.
     */
    static std::uint64_t estimateIterations(int num_vars,
                                            int num_clauses);

    const HybridConfig &config() const { return config_; }

    /** The hardware topology (built once per solver). */
    const chimera::ChimeraGraph &graph() const { return *graph_; }

  private:
    HybridConfig config_;

    // The topology is immutable configuration: building it per solve
    // made bench loops pay the construction on every call. Every
    // session this solver opens shares it.
    std::shared_ptr<const chimera::ChimeraGraph> graph_;
};

/**
 * Convenience: run plain CDCL through the same reporting types.
 * @p stop is an optional cooperative cancellation token; @p metrics
 * an optional registry receiving the solver.* counters and the
 * hybrid.total / hybrid.cdcl timers.
 */
HybridResult solveClassicCdcl(const sat::Cnf &formula,
                              const sat::SolverOptions &opts,
                              const StopToken *stop = nullptr,
                              MetricsRegistry *metrics = nullptr);

} // namespace hyqsat::core

#endif // HYQSAT_CORE_HYBRID_SOLVER_H
