#include "core/hybrid_solver.h"

#include <cmath>

#include "core/pipeline.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::core {

HybridSolver::HybridSolver(const HybridConfig &config)
    : config_(config),
      graph_(config.topology, config.chimera_rows,
             config.chimera_cols, config.chimera_shore)
{
}

anneal::SamplerSpec
hybridSamplerSpec(const HybridConfig &config)
{
    anneal::SamplerSpec spec;
    spec.name = config.sampler;
    spec.annealer = config.annealer;
    // The top-level knob and a directly-configured annealer option
    // compose as "whoever asks for more reads wins".
    spec.annealer.num_reads =
        std::max({config.num_reads, config.annealer.num_reads, 1});
    spec.annealer.reads_groups =
        config.reads_groups > 0 ? config.reads_groups
                                : config.annealer.reads_groups;
    spec.batch_samples = config.batch_samples;
    spec.pipeline_depth = std::max(config.pipeline_depth, 2);
    spec.rtt_us = config.rtt_us;
    spec.stop = config.stop;
    // A depth >= 2 turns any named synchronous backend into an async
    // pipeline; spelling "async" works too and defaults to depth 2.
    if (config.pipeline_depth >= 2 &&
        spec.name.rfind("async", 0) != 0) {
        spec.name = spec.name.empty() || spec.name == "sync"
                        ? "async"
                        : "async:" + spec.name;
    }
    return spec;
}

anneal::SamplerSpec
HybridSolver::samplerSpec() const
{
    return hybridSamplerSpec(config_);
}

std::uint64_t
HybridSolver::estimateIterations(int num_vars, int num_clauses)
{
    // Empirical fit to the scale of Table I's classic-CDCL iteration
    // counts on random 3-SAT (only sqrt(K) matters downstream):
    // K ~ m * exp(0.012 n), clamped to a sane range.
    const double k = static_cast<double>(std::max(num_clauses, 16)) *
                     std::exp(0.012 * static_cast<double>(num_vars));
    return static_cast<std::uint64_t>(std::min(k, 1e12));
}

HybridResult
HybridSolver::solve(const sat::Cnf &formula)
{
    Timer total_timer;
    HybridResult result;
    result.status = sat::l_Undef;

    if (!formula.isThreeSat()) {
        fatal("HybridSolver requires 3-SAT input (longest clause has "
              "%d literals); convert with sat::toThreeSat first",
              formula.maxClauseSize());
    }

    // Per-solve registry: the single source of truth every stat /
    // time field of HybridResult is a view over. Folded into the
    // configured external registry (if any) on the way out, so
    // counters there accumulate across solves; trace events stream
    // to the external sink live.
    MetricsRegistry metrics;
    if (config_.metrics)
        metrics.setTrace(config_.metrics->trace());

    // Inprocess first: the whole loop below — CDCL, clause queue,
    // embedding, backend feedback — runs on the simplified formula,
    // so fewer/shorter clauses reach the annealer per iteration.
    // Only the final model check is against the original input.
    simplify::Result simp;
    const bool simplified =
        config_.simplify_strength != simplify::Strength::Off;
    if (simplified) {
        simp = simplify::Pipeline(
                   simplify::Options::preset(
                       config_.simplify_strength),
                   &metrics)
                   .run(formula);
        if (!simp.satisfiable_possible) {
            result.status = sat::l_False;
            result.time.cdcl_s = total_timer.seconds();
            metrics.timer("hybrid.total")->add(result.time.cdcl_s);
            if (config_.metrics)
                config_.metrics->merge(metrics);
            return result;
        }
    }
    const sat::Cnf &work = simplified ? simp.cnf : formula;

    Frontend frontend(graph_, config_.frontend, &metrics);
    Backend backend(config_.backend, &metrics);
    // A fresh sampler per solve keeps repeated solves reproducible
    // (the backend Rng streams restart from the configured seed).
    anneal::SamplerSpec spec = samplerSpec();
    spec.metrics = &metrics; // anneal.* counters land per-solve
    const std::unique_ptr<anneal::Sampler> sampler =
        anneal::makeSampler(spec, graph_);
    Rng rng(config_.seed);

    sat::Solver solver(config_.solver);
    solver.attachMetrics(&metrics);
    if (config_.stop)
        solver.setStopToken(config_.stop);
    if (config_.learnt_export)
        solver.setLearntExportHook(config_.learnt_export);
    if (config_.root_hook)
        solver.setRootHook(config_.root_hook);
    if (!solver.loadCnf(work)) {
        result.status = sat::l_False;
        result.stats = solver.stats();
        result.time.cdcl_s = total_timer.seconds();
        metrics.timer("hybrid.total")->add(result.time.cdcl_s);
        if (config_.metrics)
            config_.metrics->merge(metrics);
        return result;
    }

    std::int64_t warmup = config_.warmup_override;
    if (warmup < 0) {
        warmup = static_cast<std::int64_t>(std::llround(std::sqrt(
            static_cast<double>(estimateIterations(
                work.numVars(), work.numClauses())))));
    }
    warmup = std::min(warmup, config_.max_warmup);

    bool qa_solved = false;
    std::vector<bool> qa_model;

    // The clause queue's activity basis only changes when conflicts
    // arise (SIV-A: "the top-30 clauses are dynamically updated when
    // conflict arises"), so the pipeline caches the frontend pass
    // across conflict-free decision stretches and tags every
    // submission with its conflict epoch - completions from an older
    // epoch are stale and discarded.
    SamplePipeline pipeline(frontend, *sampler, rng,
                            config_.use_embedding, &metrics);
    std::vector<ReadySample> ready;

    Counter *const warmup_counter =
        metrics.counter("hybrid.warmup_iterations");

    solver.setIterationHook([&](sat::Solver &s) {
        if (static_cast<std::int64_t>(s.stats().iterations) >= warmup) {
            // Warm-up over. The QA polarity hints stay in force for
            // the remaining search ("maintain the variable
            // assignments", SV-B) - clearing them was evaluated and
            // measurably hurt. In-flight samples are abandoned; the
            // sampler finishes (or drops) them on destruction.
            return;
        }
        if (config_.stop && config_.stop->stopRequested()) {
            // Cancelled: don't submit new sampling work; the solver
            // observes the same token at this decision boundary.
            return;
        }
        warmup_counter->add();

        ready.clear();
        pipeline.step(s, s.stats().conflicts, ready);

        for (ReadySample &rs : ready) {
            const BackendOutcome outcome =
                backend.apply(s, *rs.frontend, rs.sample, work);
            if (outcome.solved) {
                qa_solved = true;
                qa_model = outcome.model;
                s.requestStop();
                break;
            }
        }
    });

    if (pipeline.asynchronous()) {
        // Completion-notification point: reconcile in-flight samples
        // at every conflict so stale work is retired (and pipeline
        // slots freed) before the next decision. The synchronous
        // pipeline never has work in flight between hooks.
        solver.setConflictHook([&](sat::Solver &s) {
            pipeline.notifyConflict(s.stats().conflicts);
        });
    }

    const sat::lbool status = solver.solve();
    result.stats = solver.stats();

    // Views over the per-solve registry: pipeline, backend and
    // warm-up numbers all read back from the one place they were
    // recorded (no parallel hand-copied accounting).
    const PipelineStats ps = pipeline.stats();
    result.qa_submitted = ps.submitted;
    result.qa_stale = ps.stale_discarded;
    result.chain_breaks = ps.chain_breaks;
    result.time.frontend_s = ps.frontend_s;
    result.time.qa_device_s = ps.device_s;
    result.time.qa_host_s = ps.host_sample_s;
    result.time.qa_inflight_s = ps.inflight_s;
    result.time.qa_blocking_s = ps.blocking_s;
    result.time.stalls = ps.stalls;

    result.warmup_iterations =
        static_cast<int>(warmup_counter->value());
    result.qa_samples =
        static_cast<int>(metrics.counter("backend.samples")->value());
    result.time.backend_s = metrics.timer("backend.apply")->seconds();
    for (int k = 1; k <= 4; ++k) {
        result.strategy_count[static_cast<std::size_t>(k)] =
            metrics.counter("backend.strategy" + std::to_string(k))
                ->value();
    }

    if (qa_solved) {
        result.status = sat::l_True;
        result.model = simplified
                           ? simp.extendModel(std::move(qa_model))
                           : std::move(qa_model);
        result.solved_by_qa = true;
        if (!formula.eval(result.model))
            panic("strategy-1 model failed verification");
    } else {
        result.status = status;
        if (status.isTrue()) {
            result.model = simplified
                               ? simp.extendModel(solver.boolModel())
                               : solver.boolModel();
            if (!formula.eval(result.model))
                panic("CDCL model failed verification");
        }
    }

    // Host CDCL time is what remains of the measured wall clock.
    // The device-simulation cost is only subtracted when it ran on
    // this thread (synchronous backends); async workers overlap it
    // with the search, so it never blocked the loop.
    const double total = total_timer.seconds();
    const double sim_cost =
        pipeline.asynchronous() ? 0.0 : result.time.qa_host_s;
    result.time.cdcl_s =
        std::max(0.0, total - result.time.frontend_s -
                          result.time.backend_s - sim_cost);
    metrics.timer("hybrid.total")->add(total);
    metrics.timer("hybrid.cdcl")->add(result.time.cdcl_s);
    if (config_.metrics)
        config_.metrics->merge(metrics);
    return result;
}

HybridResult
solveClassicCdcl(const sat::Cnf &formula, const sat::SolverOptions &opts,
                 const StopToken *stop, MetricsRegistry *metrics)
{
    Timer timer;
    HybridResult result;
    sat::Solver solver(opts);
    solver.attachMetrics(metrics);
    if (stop)
        solver.setStopToken(stop);
    if (!solver.loadCnf(formula)) {
        result.status = sat::l_False;
        result.stats = solver.stats();
        result.time.cdcl_s = timer.seconds();
    } else {
        result.status = solver.solve();
        result.stats = solver.stats();
        if (result.status.isTrue())
            result.model = solver.boolModel();
        result.time.cdcl_s = timer.seconds();
    }
    if (metrics) {
        metrics->timer("hybrid.total")->add(result.time.cdcl_s);
        metrics->timer("hybrid.cdcl")->add(result.time.cdcl_s);
    }
    return result;
}

} // namespace hyqsat::core
