/**
 * @file
 * Example: a command-line DIMACS solver front door, so the library
 * interoperates with standard SAT tooling. Reads a CNF file, solves
 * it with HyQSAT (or plain CDCL with --classic) and prints the
 * result in SAT-competition style ("s SATISFIABLE" + "v" lines).
 *
 *   ./build/examples/dimacs_solver problem.cnf [--classic]
 *       [--warmup N] [--timeout-s X] [--conflicts N]
 *       [--metrics FILE] [--trace FILE] [--no-frontend-cache]
 *       [--incremental-tracking] [knob flags]
 *
 * The knob flags every front door shares are parsed, range-checked
 * and listed in the usage line by the knob table (core/knobs.h;
 * README's CLI section explains them). Here a bare --simplify means
 * light. The hybrid path inprocesses inside HybridSolver (so the
 * annealer frontend sees the reduced formula); --classic
 * preprocesses here and extends the model afterwards. Any other
 * argument exits 2 with "unknown option".
 *
 * --timeout-s bounds the run by wall clock (a watchdog thread
 * trips the cooperative stop token every layer observes) and
 * --conflicts by conflict count; either prints "s UNKNOWN" when it
 * fires. --metrics dumps the run's metrics registry as JSON
 * ("hyqsat.metrics/1" schema); --trace streams JSONL events
 * (restarts, pipeline stalls, backend outcomes) as they happen.
 * --no-frontend-cache disables the frontend's (embedding, encoding)
 * memoization (ablation knob; results are bit-identical either way)
 * and --incremental-tracking switches the solver to incremental
 * satisfied-clause counters instead of O(clauses) scans.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/hybrid_solver.h"
#include "core/knobs.h"
#include "sat/dimacs.h"
#include "simplify/pipeline.h"
#include "util/cancel.h"
#include "util/metrics.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::printf("usage: %s problem.cnf [--classic] [--warmup N]%s "
                    "[--timeout-s X] [--conflicts N] "
                    "[--metrics FILE] [--trace FILE] "
                    "[--no-frontend-cache] [--incremental-tracking]\n",
                    argv[0], core::flagUsage().c_str());
        return 2;
    }
    const std::string path = argv[1];
    // The shared knobs (core/knobs.h) land straight in the hybrid
    // config; --classic reads only its simplify strength.
    core::HybridConfig config;
    config.annealer = anneal::QuantumAnnealer::Options::simulator();
    bool classic = false;
    double timeout_s = 0.0;
    std::int64_t conflict_budget = -1;
    std::string metrics_path, trace_path;
    for (int i = 2; i < argc; ++i) {
        // Bare --simplify means light here, so this CLI never reads
        // the table's `--simplify LEVEL` form.
        if (!std::strcmp(argv[i], "--simplify")) {
            config.simplify_strength = simplify::Strength::Light;
            continue;
        }
        std::string error;
        if (core::parseFlag(argc, argv, i, config, error))
            continue;
        if (!error.empty()) {
            std::printf("c %s\n", error.c_str());
            return 2;
        }
        if (!std::strcmp(argv[i], "--classic"))
            classic = true;
        else if (!std::strcmp(argv[i], "--warmup") && i + 1 < argc)
            config.warmup_override = std::atoll(argv[++i]);
        else if (!std::strcmp(argv[i], "--timeout-s") && i + 1 < argc)
            timeout_s = std::atof(argv[++i]);
        else if (!std::strcmp(argv[i], "--conflicts") && i + 1 < argc)
            conflict_budget = std::atoll(argv[++i]);
        else if (!std::strcmp(argv[i], "--metrics") && i + 1 < argc)
            metrics_path = argv[++i];
        else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc)
            trace_path = argv[++i];
        else if (!std::strcmp(argv[i], "--no-frontend-cache"))
            config.frontend.cache_embeddings = false;
        else if (!std::strcmp(argv[i], "--incremental-tracking"))
            config.solver.incremental_clause_tracking = true;
        else {
            std::printf("c unknown option %s\n", argv[i]);
            return 2;
        }
    }
    const simplify::Strength strength = config.simplify_strength;

    // One registry for the whole run; the solve layers merge their
    // per-solve registries into it on the way out. The trace sink
    // streams JSONL live (events appear even if the run is killed).
    MetricsRegistry registry;
    std::unique_ptr<TraceSink> trace_sink;
    if (!trace_path.empty()) {
        trace_sink = std::make_unique<TraceSink>(trace_path);
        if (!trace_sink->ok()) {
            std::printf("c cannot open trace file %s\n",
                        trace_path.c_str());
            return 2;
        }
        registry.setTrace(trace_sink.get());
    }
    const auto write_metrics = [&] {
        if (metrics_path.empty())
            return;
        std::ofstream out(metrics_path);
        if (!out) {
            std::printf("c cannot open metrics file %s\n",
                        metrics_path.c_str());
            return;
        }
        registry.writeJson(out);
        std::printf("c wrote metrics to %s\n", metrics_path.c_str());
    };

    const auto parsed = sat::parseDimacsFile(path);
    if (!parsed) {
        std::printf("c cannot parse %s\n", path.c_str());
        return 2;
    }
    sat::Cnf cnf = *parsed;
    std::printf("c parsed %d variables, %d clauses\n", cnf.numVars(),
                cnf.numClauses());
    const int original_vars = cnf.numVars();
    // The classic path preprocesses here (and extends the model
    // below); the hybrid path hands the strength to HybridSolver so
    // the annealer frontend works on the reduced formula.
    simplify::Result pre;
    const bool preprocess =
        classic && strength != simplify::Strength::Off;
    if (preprocess) {
        pre = simplify::Pipeline(simplify::Options::preset(strength),
                                 &registry)
                  .run(cnf);
        std::printf("c simplify=%s: %d units, %d subsumed, %d "
                    "strengthened, %d equivalences, %d eliminated "
                    "-> %d clauses\n",
                    simplify::strengthName(strength), pre.stats.units,
                    pre.stats.subsumed, pre.stats.strengthened,
                    pre.stats.equivalences, pre.stats.eliminated,
                    pre.cnf.numClauses());
        if (!pre.satisfiable_possible) {
            write_metrics();
            std::printf("s UNSATISFIABLE\n");
            return 20;
        }
        cnf = pre.cnf;
    }
    if (!cnf.isThreeSat()) {
        std::printf("c converting to 3-SAT for the annealer "
                    "frontend\n");
        cnf = sat::toThreeSat(cnf);
    }

    // Wall-clock budget: a watchdog thread trips the cooperative
    // stop token the CDCL loop, hybrid loop and sampler all observe.
    StopToken stop;
    std::mutex watchdog_mutex;
    std::condition_variable watchdog_cv;
    bool solve_done = false;
    std::thread watchdog;
    if (timeout_s > 0.0) {
        watchdog = std::thread([&] {
            std::unique_lock<std::mutex> lock(watchdog_mutex);
            if (!watchdog_cv.wait_for(
                    lock, std::chrono::duration<double>(timeout_s),
                    [&] { return solve_done; })) {
                stop.requestStop();
            }
        });
    }
    const auto finish_watchdog = [&] {
        if (!watchdog.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(watchdog_mutex);
            solve_done = true;
        }
        watchdog_cv.notify_all();
        watchdog.join();
    };

    core::HybridResult result;
    if (classic) {
        auto opts = sat::SolverOptions::minisatStyle();
        opts.conflict_budget = conflict_budget;
        result = core::solveClassicCdcl(cnf, opts, &stop, &registry);
    } else {
        config.stop = &stop;
        config.metrics = &registry;
        config.solver.conflict_budget = conflict_budget;
        core::HybridSolver solver(config);
        result = solver.solve(cnf);
        std::printf("c sampler=%s depth=%d num_reads=%d "
                    "reads_groups=%d topology=%s simplify=%s\n",
                    config.sampler.c_str(), config.pipeline_depth,
                    config.num_reads, config.reads_groups,
                    topology::kindName(config.topology),
                    simplify::strengthName(strength));
        std::printf("c %d QA samples applied over %d warm-up "
                    "iterations (%d submitted, %d stale, %d stalls)\n",
                    result.qa_samples, result.warmup_iterations,
                    result.qa_submitted, result.qa_stale,
                    result.time.stalls);
        std::printf("c QA device %.1f us total, %.1f us blocking, "
                    "%.1f us in flight\n",
                    result.time.qa_device_s * 1e6,
                    result.time.qa_blocking_s * 1e6,
                    result.time.qa_inflight_s * 1e6);
    }

    finish_watchdog();
    if (result.status.isUndef()) {
        if (stop.stopRequested())
            std::printf("c stopped: wall-clock timeout (%.1f s)\n",
                        timeout_s);
        else
            std::printf("c stopped: budget exhausted\n");
    }

    std::printf("c %llu iterations, %llu conflicts\n",
                static_cast<unsigned long long>(
                    result.stats.iterations),
                static_cast<unsigned long long>(
                    result.stats.conflicts));
    write_metrics();
    if (result.status.isTrue()) {
        if (preprocess)
            result.model = pre.extendModel(result.model);
        if (static_cast<int>(result.model.size()) < original_vars)
            result.model.resize(original_vars, false);
        std::printf("s SATISFIABLE\nv");
        for (int v = 0; v < original_vars; ++v)
            std::printf(" %d", result.model[v] ? v + 1 : -(v + 1));
        std::printf(" 0\n");
        return 10;
    }
    if (result.status.isFalse()) {
        std::printf("s UNSATISFIABLE\n");
        return 20;
    }
    std::printf("s UNKNOWN\n");
    return 0;
}
