#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::core {

namespace {

/** Per-call deltas of the cumulative CDCL counters. */
sat::SolverStats
statsDelta(const sat::SolverStats &after, const sat::SolverStats &before)
{
    sat::SolverStats d;
    d.decisions = after.decisions - before.decisions;
    d.propagations = after.propagations - before.propagations;
    d.conflicts = after.conflicts - before.conflicts;
    d.restarts = after.restarts - before.restarts;
    d.learned_clauses = after.learned_clauses - before.learned_clauses;
    d.removed_clauses = after.removed_clauses - before.removed_clauses;
    d.minimized_literals =
        after.minimized_literals - before.minimized_literals;
    d.reduce_dbs = after.reduce_dbs - before.reduce_dbs;
    d.exported_clauses = after.exported_clauses - before.exported_clauses;
    d.imported_clauses = after.imported_clauses - before.imported_clauses;
    d.iterations = after.iterations - before.iterations;
    return d;
}

PipelineStats
pipelineDelta(const PipelineStats &after, const PipelineStats &before)
{
    PipelineStats d;
    d.submitted = after.submitted - before.submitted;
    d.cancelled = after.cancelled - before.cancelled;
    d.frontend_s = after.frontend_s - before.frontend_s;
    d.host_sample_s = after.host_sample_s - before.host_sample_s;
    d.device_s = after.device_s - before.device_s;
    d.chain_breaks = after.chain_breaks - before.chain_breaks;
    return d;
}

/**
 * Sampler backend spec derived from a hybrid configuration: the
 * backend name, the read counts and stop-token plumbing.
 */
anneal::SamplerSpec
hybridSamplerSpec(const HybridConfig &config)
{
    anneal::SamplerSpec spec;
    spec.name = config.sampler;
    spec.annealer = config.annealer;
    spec.annealer.num_reads = config.num_reads;
    spec.annealer.reads_groups = config.reads_groups;
    spec.stop = config.stop;
    return spec;
}

/** @return true iff @p model (indexed by variable) satisfies @p p. */
bool
litHolds(const std::vector<bool> &model, sat::Lit p)
{
    const auto v = static_cast<std::size_t>(p.var());
    if (v >= model.size())
        return false;
    return model[v] != p.sign();
}

} // namespace

Session::Session(const HybridConfig &config)
    : Session(config,
              topology::Topology::shared(
                  config.topology, config.chimera_rows,
                  config.chimera_cols, config.chimera_shore),
              nullptr)
{
}

Session::Session(const HybridConfig &config,
                 std::shared_ptr<const topology::Topology> graph,
                 const sat::Cnf *one_shot)
    : config_(config), graph_(std::move(graph)),
      formula_(one_shot ? *one_shot : accumulated_)
{
    if (config_.metrics)
        metrics_.setTrace(config_.metrics->trace());
    if (!one_shot) {
        m_solves_ = metrics_.counter("session.solves");
        m_recompiles_ = metrics_.counter("session.recompiles");
        m_delta_clauses_ = metrics_.counter("session.delta_clauses");
    }
}

Session::~Session()
{
    // Lifetime totals fold into the configured registry exactly once,
    // mirroring what a sequence of one-shot solves would have
    // accumulated there.
    if (config_.metrics)
        config_.metrics->merge(metrics_);
}

void
Session::freeze(sat::Var v)
{
    if (v < 0)
        return;
    if (frozen_.insert(v).second && compiled_ &&
        simp_.mapLiteral(sat::mkLit(v, false)).kind ==
            simplify::MappedLit::Kind::Eliminated) {
        need_recompile_ = true;
    }
}

bool
Session::addClause(sat::LitVec lits)
{
    if (lits.size() > 3) {
        fatal("Session requires 3-SAT input (clause has %d literals); "
              "convert with sat::toThreeSat first",
              static_cast<int>(lits.size()));
    }
    accumulated_.addClause(std::move(lits));
    metricInc(m_delta_clauses_);
    if (!compiled_ || need_recompile_ || formula_unsat_)
        return !formula_unsat_;

    // Live path: translate into the compile's space and attach to
    // the running solver, keeping its learnt state.
    sat::LitVec mapped;
    for (const sat::Lit p :
         accumulated_.clause(accumulated_.numClauses() - 1)) {
        const simplify::MappedLit m = simp_.mapLiteral(p);
        switch (m.kind) {
          case simplify::MappedLit::Kind::True:
            return true; // already satisfied at the root
          case simplify::MappedLit::Kind::False:
            break; // literal drops out
          case simplify::MappedLit::Kind::Eliminated:
            // The variable only exists in the reconstruction stack;
            // re-simplify with it frozen before the next solve.
            need_recompile_ = true;
            return true;
          case simplify::MappedLit::Kind::Free:
            mapped.push_back(m.lit);
            break;
        }
    }
    if (&work() == &simp_.cnf) // else formula_ already holds it
        simp_.cnf.addClause(mapped);
    if (!solver_->addClause(std::move(mapped), work().numClauses() - 1))
        formula_unsat_ = true;
    return !formula_unsat_;
}

bool
Session::addFormula(const sat::Cnf &cnf)
{
    accumulated_.ensureVars(cnf.numVars());
    bool ok = !formula_unsat_;
    for (const sat::LitVec &c : cnf.clauses())
        ok = addClause(c);
    return ok;
}

void
Session::recompile()
{
    ++recompiles_;
    metricInc(m_recompiles_);
    compiled_ = true;
    need_recompile_ = false;
    formula_unsat_ = false;
    final_conflict_.clear();

    // Tear the old warm state down first: pipeline_ references
    // frontend/sampler/rng. A formula the simplifier refutes leaves
    // no solver behind.
    solver_.reset();
    pipeline_.reset();

    if (&work() == &simp_.cnf) { // Off keeps simp_ the identity
        simplify::Options so =
            simplify::Options::preset(config_.simplify_strength);
        so.frozen.assign(frozen_.begin(), frozen_.end());
        simp_ = simplify::Pipeline(so, &metrics_).run(formula_);
        if (!simp_.satisfiable_possible) {
            formula_unsat_ = true;
            return;
        }
    }

    frontend_ = std::make_unique<Frontend>(*graph_, config_.frontend,
                                           &metrics_);
    backend_ = std::make_unique<Backend>(config_.backend, &metrics_);
    anneal::SamplerSpec spec = hybridSamplerSpec(config_);
    spec.metrics = &metrics_;
    sampler_ = anneal::makeSampler(spec, *graph_);
    rng_ = Rng(config_.seed);

    solver_ = std::make_unique<sat::Solver>(config_.solver);
    solver_->attachMetrics(&metrics_);
    if (config_.stop)
        solver_->setStopToken(config_.stop);
    if (config_.learnt_export)
        solver_->setLearntExportHook(config_.learnt_export);
    if (config_.root_hook)
        solver_->setRootHook(config_.root_hook);
    if (!solver_->loadCnf(work())) {
        formula_unsat_ = true;
        return;
    }

    // The clause queue's activity basis only changes when conflicts
    // arise (SIV-A: "the top-30 clauses are dynamically updated when
    // conflict arises"), so the pipeline caches the frontend pass
    // across conflict-free decision stretches.
    pipeline_ = std::make_unique<SamplePipeline>(
        *frontend_, *sampler_, rng_, &metrics_, config_.stop);
}

const sat::Cnf &
Session::work() const
{
    // Off leaves simp_ the identity and would only copy the formula.
    return config_.simplify_strength == simplify::Strength::Off
               ? formula_
               : simp_.cnf;
}

bool
Session::mapAssumptions(
    const sat::LitVec &assumptions, sat::LitVec &mapped,
    std::vector<std::pair<sat::Lit, sat::Lit>> &amap)
{
    for (int attempt = 0;; ++attempt) {
        mapped.clear();
        amap.clear();
        std::vector<sat::Var> must_freeze;
        sat::LitVec falsified;
        for (const sat::Lit a : assumptions) {
            const simplify::MappedLit m = simp_.mapLiteral(a);
            switch (m.kind) {
              case simplify::MappedLit::Kind::True:
                break; // holds at the root: nothing to assume
              case simplify::MappedLit::Kind::False:
                falsified.push_back(~a);
                break;
              case simplify::MappedLit::Kind::Eliminated:
                must_freeze.push_back(a.var());
                break;
              case simplify::MappedLit::Kind::Free:
                mapped.push_back(m.lit);
                amap.emplace_back(m.lit, a);
                break;
            }
        }
        if (!falsified.empty()) {
            final_conflict_ = std::move(falsified);
            return false;
        }
        if (must_freeze.empty())
            return true;
        // Freezing the original variable keeps it out of both the
        // SCC substitution and BVE next time, so the retry cannot
        // see Eliminated again for it; two rounds always suffice.
        if (attempt >= 2)
            panic("assumption mapping failed to stabilize");
        for (const sat::Var v : must_freeze)
            frozen_.insert(v);
        recompile();
        if (formula_unsat_)
            return true; // caller notices via the flag
    }
}

HybridResult
Session::solve(const sat::LitVec &assumptions)
{
    Timer total_timer;
    ++solves_;
    metricInc(m_solves_);
    HybridResult result;
    result.status = sat::l_Undef;
    final_conflict_.clear();

    // Every assumption variable is permanently frozen: later
    // recompiles must keep it mappable too.
    for (const sat::Lit a : assumptions) {
        accumulated_.ensureVars(a.var() + 1);
        freeze(a.var());
    }
    const int recompiles_before = recompiles_;
    if (!compiled_ || need_recompile_)
        recompile();

    sat::LitVec mapped;
    std::vector<std::pair<sat::Lit, sat::Lit>> amap;
    bool assumptions_ok = true;
    if (!formula_unsat_)
        assumptions_ok = mapAssumptions(assumptions, mapped, amap);

    // A solver this call built counts from zero: its load-time root
    // propagation is this call's work.
    const sat::SolverStats before =
        recompiles_ != recompiles_before || !solver_
            ? sat::SolverStats{}
            : solver_->stats();
    if (formula_unsat_ || !assumptions_ok) {
        // formula_unsat_: UNSAT regardless of assumptions — the core
        // is empty. Otherwise a root-falsified assumption: the core
        // already names it.
        if (formula_unsat_)
            final_conflict_.clear();
        result.status = sat::l_False;
        if (solver_)
            result.stats = statsDelta(solver_->stats(), before);
        result.time.cdcl_s = total_timer.seconds();
        metrics_.timer("hybrid.total")->add(result.time.cdcl_s);
        metrics_.timer("hybrid.cdcl")->add(result.time.cdcl_s);
        return result;
    }

    // Per-call determinism: restart the queue-sampling stream from
    // the session seed so a repeated call pattern regenerates the
    // same clause queues — and hits the retained embedding memo
    // instead of re-embedding. The stream still diverges within a
    // call as the trail evolves.
    rng_ = Rng(config_.seed);

    const PipelineStats ps_before = pipeline_->stats();
    Counter *const warmup_counter =
        metrics_.counter("hybrid.warmup_iterations");
    const std::uint64_t warmup_before = warmup_counter->value();
    const std::uint64_t samples_before =
        metrics_.counter("backend.samples")->value();
    const double backend_s_before =
        metrics_.timer("backend.apply")->seconds();
    std::array<std::uint64_t, 5> strategy_before{};
    for (int k = 1; k <= 4; ++k) {
        strategy_before[static_cast<std::size_t>(k)] =
            metrics_.counter("backend.strategy" + std::to_string(k))
                ->value();
    }

    // Per-call warm-up window: sqrt(K) fresh QA-assisted iterations
    // on top of whatever the session already spent, so a long-lived
    // session keeps getting annealer guidance on new assumptions.
    std::int64_t warmup = config_.warmup_override;
    if (warmup < 0) {
        warmup = static_cast<std::int64_t>(std::llround(std::sqrt(
            static_cast<double>(HybridSolver::estimateIterations(
                work().numVars(), work().numClauses())))));
    }
    warmup = std::min(warmup, config_.max_warmup);
    const std::int64_t warm_end =
        static_cast<std::int64_t>(before.iterations) + warmup;

    bool qa_solved = false;
    std::vector<bool> qa_model;
    solver_->setIterationHook([&](sat::Solver &s) {
        if (static_cast<std::int64_t>(s.stats().iterations) >=
            warm_end) {
            return;
        }
        if (config_.stop && config_.stop->stopRequested())
            return;
        warmup_counter->add();

        const std::optional<ReadySample> rs =
            pipeline_->step(s, s.stats().conflicts);
        if (!rs)
            return;
        BackendOutcome outcome =
            backend_->apply(s, *rs->frontend, rs->sample, work());
        if (!outcome.solved)
            return;
        // Strategy 1 proves the *formula* satisfiable; under
        // assumptions the sample only ends this call if it also
        // honors them (they are constraints the annealer never saw).
        // A near-miss still helped as polarity guidance.
        for (const auto &pr : amap) {
            if (!litHolds(outcome.model, pr.first))
                return;
        }
        qa_solved = true;
        qa_model = std::move(outcome.model);
        s.requestStop();
    });

    const sat::lbool status = solver_->solveWithAssumptions(mapped);
    solver_->setIterationHook({}); // hook captures this frame

    result.stats = statsDelta(solver_->stats(), before);
    const PipelineStats ps =
        pipelineDelta(pipeline_->stats(), ps_before);
    result.qa_submitted = ps.submitted;
    result.chain_breaks = ps.chain_breaks;
    result.time.frontend_s = ps.frontend_s;
    result.time.qa_device_s = ps.device_s;
    result.time.qa_host_s = ps.host_sample_s;
    result.warmup_iterations =
        static_cast<int>(warmup_counter->value() - warmup_before);
    result.qa_samples = static_cast<int>(
        metrics_.counter("backend.samples")->value() - samples_before);
    result.time.backend_s =
        metrics_.timer("backend.apply")->seconds() - backend_s_before;
    for (int k = 1; k <= 4; ++k) {
        result.strategy_count[static_cast<std::size_t>(k)] =
            metrics_.counter("backend.strategy" + std::to_string(k))
                ->value() -
            strategy_before[static_cast<std::size_t>(k)];
    }

    if (qa_solved) {
        result.status = sat::l_True;
        result.model = simp_.extendModel(std::move(qa_model));
        result.solved_by_qa = true;
    } else {
        result.status = status;
        if (status.isTrue())
            result.model = simp_.extendModel(solver_->boolModel());
    }
    if (result.status.isTrue()) {
        if (static_cast<int>(result.model.size()) <
            formula_.numVars()) {
            result.model.resize(
                static_cast<std::size_t>(formula_.numVars()), false);
        }
        if (!formula_.eval(result.model))
            panic("session model failed verification");
        for (const sat::Lit a : assumptions) {
            if (!litHolds(result.model, a))
                panic("session model violates an assumption");
        }
    } else if (result.status.isFalse()) {
        // Map the solver's core (negated mapped assumptions) back to
        // the original literals it came from.
        final_conflict_.clear();
        for (const sat::Lit c : solver_->finalConflict()) {
            for (const auto &pr : amap) {
                if (~pr.first != c)
                    continue;
                const sat::Lit orig = ~pr.second;
                bool dup = false;
                for (const sat::Lit q : final_conflict_)
                    dup = dup || q == orig;
                if (!dup)
                    final_conflict_.push_back(orig);
            }
        }
        if (!solver_->okay())
            formula_unsat_ = true;
    }

    const double total = total_timer.seconds();
    result.time.cdcl_s =
        std::max(0.0, total - result.time.frontend_s -
                          result.time.backend_s - result.time.qa_host_s);
    metrics_.timer("hybrid.total")->add(total);
    metrics_.timer("hybrid.cdcl")->add(result.time.cdcl_s);
    return result;
}

} // namespace hyqsat::core
