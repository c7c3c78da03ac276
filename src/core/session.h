/**
 * @file
 * The hybrid loop: an IPASIR-style session over the HyQSAT warm-up
 * (§III). A Session accepts clauses and repeated solve(assumptions)
 * calls; between calls it retains its warm state — the CDCL solver
 * (learnt clauses, VSIDS activity, saved polarities), the sampling
 * pipeline (frontend workspace with its embedding cache and
 * compiled-slot memos), and the simplify result the formula was
 * compiled through. It is the loop's only implementation:
 * HybridSolver::solve is a one-shot session (one formula read in
 * place, one solve, no assumptions) that records no session.*
 * counters.
 *
 * The simplify layer runs once per *compile*, not per solve:
 * assumptions and delta clauses are translated into the simplified
 * variable space with simplify::Result::mapLiteral. Assumption
 * variables are frozen (exempt from substitution and elimination) so
 * the translation exists; an assumption or delta clause that lands
 * on an already-eliminated variable triggers a freeze-and-recompile
 * instead of an error. All external surfaces — clauses, assumptions,
 * models and failed-assumption cores — speak the original variable
 * space.
 */

#ifndef HYQSAT_CORE_SESSION_H
#define HYQSAT_CORE_SESSION_H

#include <memory>
#include <set>
#include <vector>

#include "core/hybrid_solver.h"
#include "core/pipeline.h"

namespace hyqsat::core {

/** An incremental solving session. Not thread-safe; one per caller. */
class Session
{
  public:
    /** An incremental session on the shared graph of its shape. */
    explicit Session(const HybridConfig &config = {});
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Append a clause (original variable space; at most 3 literals,
     * like every hybrid entry point — convert with sat::toThreeSat
     * first). Between solves the clause is mapped through the
     * current compile and attached to the running solver without
     * discarding learnt state; only a clause over an eliminated
     * variable forces a recompile at the next solve.
     *
     * @return false iff the formula is now *known* unsatisfiable
     *         regardless of assumptions. Detection is lazy before
     *         the first solve compiles the formula (a contradiction
     *         added then still yields l_False at the next solve).
     */
    bool addClause(sat::LitVec lits);

    /** Append every clause of @p cnf (see addClause). */
    bool addFormula(const sat::Cnf &cnf);

    /**
     * Mark a variable externally visible before the first solve
     * compiles the formula (assumption variables are frozen
     * automatically; use this for variables shared with other
     * sessions or future delta clauses to avoid recompiles).
     */
    void freeze(sat::Var v);

    /**
     * Solve the accumulated formula under @p assumptions, reusing
     * the session's warm state. Each call runs its own sqrt(K)
     * QA warm-up window on top of the iterations already spent.
     * On l_False, failedAssumptions() holds the clause over negated
     * assumptions the refutation used (empty when the formula is
     * unsatisfiable on its own). Result counters and times are
     * per-call deltas; a solver this call (re)built counts from
     * zero, its load-time root propagation included. The QA
     * queue-sampling stream restarts from the config seed each call,
     * so a repeated call pattern regenerates identical clause queues
     * and reuses the retained embedding memo.
     */
    HybridResult solve(const sat::LitVec &assumptions = {});

    /** Failed-assumption core of the last l_False solve. */
    const sat::LitVec &failedAssumptions() const
    {
        return final_conflict_;
    }

    /** The formula accumulated so far (original space). */
    const sat::Cnf &formula() const { return formula_; }

    /** Times the session recompiled (simplify + solver rebuild). */
    int recompiles() const { return recompiles_; }

    /** Solve calls issued. */
    int solves() const { return solves_; }

    /**
     * Session-lifetime registry: frontend.cache.*, pipeline.*,
     * solver.* and (incremental sessions only) session.* counters
     * accumulate here across solves (merged into
     * HybridConfig::metrics when the session closes).
     */
    const MetricsRegistry &metrics() const { return metrics_; }

    const HybridConfig &config() const { return config_; }

  private:
    friend class HybridSolver;

    /**
     * Share @p graph (immutable) with the HybridSolver that built
     * it. A non-null @p one_shot makes HybridSolver::solve's one-shot
     * session: it reads that formula in place (the caller keeps it
     * alive, and adds no clauses or assumptions, until the session
     * closes) and records no session.* counters, so a one-shot solve
     * leaves exactly the hybrid layer's keys in HybridConfig::metrics.
     */
    Session(const HybridConfig &config,
            std::shared_ptr<const topology::Topology> graph,
            const sat::Cnf *one_shot);

    /** Simplify the accumulated formula and rebuild the warm state. */
    void recompile();

    /**
     * The formula the solver runs on: simp_.cnf, or formula_ itself
     * when simplification is off.
     */
    const sat::Cnf &work() const;

    /**
     * Map this call's assumptions into the compile's variable space,
     * freezing + recompiling when one lands on an eliminated
     * variable. Fills @p mapped (deduplicated against nothing — the
     * solver tolerates duplicates) and @p amap with
     * (mapped, original) pairs for core map-back.
     * @return false iff an assumption is root-falsified (the caller
     *         returns l_False; final_conflict_ already holds the
     *         negated falsified assumptions).
     */
    bool mapAssumptions(
        const sat::LitVec &assumptions, sat::LitVec &mapped,
        std::vector<std::pair<sat::Lit, sat::Lit>> &amap);

    HybridConfig config_;
    std::shared_ptr<const topology::Topology> graph_;
    MetricsRegistry metrics_;

    /** session.* counters; null in a one-shot session. */
    Counter *m_solves_ = nullptr;
    Counter *m_recompiles_ = nullptr;
    Counter *m_delta_clauses_ = nullptr;

    /** Everything ever added, original variable space. */
    sat::Cnf accumulated_;

    /** The formula solved: accumulated_, or the one-shot input. */
    const sat::Cnf &formula_;

    /** Explicit freezes plus every assumption variable ever seen. */
    std::set<sat::Var> frozen_;

    /**
     * Current compile: the simplify result (the identity when
     * simplification is off), whose cnf collects mapped delta
     * clauses too.
     */
    simplify::Result simp_;
    bool compiled_ = false;
    bool need_recompile_ = false;
    bool formula_unsat_ = false; ///< UNSAT regardless of assumptions

    // Warm hybrid state, rebuilt only by recompile(). Declaration
    // order is destruction-safety order: pipeline_ references
    // frontend_, sampler_ and rng_ — members below are torn down
    // before the ones above.
    Rng rng_{0};
    std::unique_ptr<Frontend> frontend_;
    std::unique_ptr<Backend> backend_;
    std::unique_ptr<anneal::Sampler> sampler_;
    std::unique_ptr<SamplePipeline> pipeline_;
    std::unique_ptr<sat::Solver> solver_;

    sat::LitVec final_conflict_; ///< original-space failed core
    int recompiles_ = 0;
    int solves_ = 0;
};

} // namespace hyqsat::core

#endif // HYQSAT_CORE_SESSION_H
