/**
 * @file
 * Example: the batch DIMACS service front door. Streams many CNF
 * instances through portfolio workers on a thread pool and writes a
 * structured report — the CLI face of service::BatchRunner.
 *
 *   ./build/examples/batch_solver [files...] [--dir D] [--manifest F|-]
 *       [--workers N] [--jobs N] [--timeout-s X] [--conflicts N]
 *       [--memory-mb M] [--no-share] [--json FILE] [--csv FILE]
 *       [--metrics FILE] [--trace FILE] [--strict] [--quiet]
 *       [knob flags]
 *
 * The knob flags every front door shares set every worker's base
 * config; the knob table (core/knobs.h) parses, range-checks and
 * lists them in the usage line. The JSON/CSV reports echo the
 * effective simplify, topology and reads_groups per instance; the
 * portfolio's diversification still varies the base across slots
 * when the slate is auto-built.
 *
 * Instances come from positional paths, every *.cnf/*.dimacs under
 * --dir, and/or a manifest (one path per line; "-" = stdin). Exit
 * status: 0 on success; with --strict, 1 if any instance ended
 * UNKNOWN / TIMEOUT / SKIPPED / PARSE_ERROR (the CI smoke gate).
 * --metrics dumps whole-batch totals from the metrics registry as
 * JSON; --trace streams per-worker / per-instance JSONL events live.
 *
 * SIGINT/SIGTERM drain gracefully: in-flight instances are
 * cancelled through the StopToken machinery and the report is still
 * written (interrupted instances show UNKNOWN) instead of the old
 * die-mid-job-and-lose-everything behaviour. A second signal
 * force-kills.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/knobs.h"
#include "service/batch_runner.h"
#include "service/report.h"
#include "service/signals.h"
#include "util/metrics.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    // Instance sources in command-line order: a file ("" kind), a
    // --dir or a --manifest. They are read once the whole command
    // line has parsed, so a bad flag exits before any file is read.
    std::vector<std::pair<std::string, std::string>> sources;
    service::BatchOptions opts;
    opts.portfolio.base.annealer =
        anneal::QuantumAnnealer::Options::simulator();
    std::string json_path, csv_path, metrics_path, trace_path;
    bool strict = false, quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string error;
        if (core::parseFlag(argc, argv, i, opts.portfolio.base, error))
            continue;
        if (!error.empty()) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        const auto arg = [&](const char *name) {
            return !std::strcmp(argv[i], name) && i + 1 < argc;
        };
        if (arg("--dir") || arg("--manifest")) {
            sources.emplace_back(argv[i], argv[i + 1]);
            ++i;
        } else if (arg("--workers")) {
            core::parseNumberFlag(argv, i, error,
                                  opts.portfolio.num_workers, 1,
                                  core::kMaxCount);
        } else if (arg("--jobs")) {
            core::parseNumberFlag(argv, i, error, opts.concurrency, 1,
                                  core::kMaxCount);
        } else if (arg("--timeout-s")) {
            core::parseNumberFlag(argv, i, error,
                                  opts.instance_timeout_s, 0.0);
        } else if (arg("--conflicts")) {
            core::parseNumberFlag(argv, i, error,
                                  opts.portfolio.conflict_budget, -1);
        } else if (arg("--memory-mb")) {
            core::parseNumberFlag(argv, i, error,
                                  opts.memory_budget_mb, 0);
        } else if (arg("--json")) {
            json_path = argv[++i];
        } else if (arg("--csv")) {
            csv_path = argv[++i];
        } else if (arg("--metrics")) {
            metrics_path = argv[++i];
        } else if (arg("--trace")) {
            trace_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--no-share")) {
            opts.portfolio.share_clauses = false;
        } else if (!std::strcmp(argv[i], "--strict")) {
            strict = true;
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else {
            sources.emplace_back("", argv[i]);
        }
        if (!error.empty()) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }

    std::vector<std::string> paths;
    for (auto &[kind, src] : sources) {
        if (kind.empty()) {
            paths.push_back(std::move(src));
        } else if (kind == "--dir") {
            for (auto &p : service::collectCnfFiles(src))
                paths.push_back(std::move(p));
        } else if (src == "-") {
            for (auto &p : service::readManifest(std::cin))
                paths.push_back(std::move(p));
        } else {
            std::ifstream in(src);
            if (!in) {
                std::fprintf(stderr, "cannot open manifest %s\n",
                             src.c_str());
                return 2;
            }
            for (auto &p : service::readManifest(in))
                paths.push_back(std::move(p));
        }
    }

    if (paths.empty()) {
        std::printf(
            "usage: %s [files...] [--dir D] [--manifest F|-] "
            "[--workers N] [--jobs N] [--timeout-s X] [--conflicts N] "
            "[--memory-mb M] [--no-share] [--json FILE] [--csv FILE] "
            "[--metrics FILE] [--trace FILE] [--strict] [--quiet]%s\n",
            argv[0], core::flagUsage().c_str());
        return 2;
    }

    // Whole-batch registry: every instance's private registry is
    // merged into it by the runner; the trace sink streams live.
    MetricsRegistry registry;
    std::unique_ptr<TraceSink> trace_sink;
    if (!trace_path.empty()) {
        trace_sink = std::make_unique<TraceSink>(trace_path);
        if (!trace_sink->ok()) {
            std::fprintf(stderr, "cannot open trace file %s\n",
                         trace_path.c_str());
            return 2;
        }
        registry.setTrace(trace_sink.get());
    }
    if (!metrics_path.empty() || !trace_path.empty())
        opts.metrics = &registry;

    // Graceful drain on SIGINT/SIGTERM: the token cancels queued and
    // in-flight instances cooperatively, and the report/metrics
    // files below are still flushed.
    static StopToken stop;
    service::installStopSignalHandlers(stop);
    opts.external_stop = &stop;

    service::BatchRunner runner(opts);
    const service::BatchReport report = runner.run(paths);

    if (stop.stopRequested() && !quiet)
        std::fprintf(stderr,
                     "interrupted: drained batch, writing report\n");

    if (!quiet) {
        std::printf("%-24s %-10s %-12s %9s %8s %10s\n", "instance",
                    "status", "winner", "wall_s", "vars",
                    "conflicts");
        for (const auto &r : report.records) {
            std::printf("%-24s %-10s %-12s %9.3f %8d %10llu\n",
                        r.name.c_str(), r.status.c_str(),
                        r.winner.c_str(), r.wall_s, r.vars,
                        static_cast<unsigned long long>(r.conflicts));
        }
        std::printf("\n%zu instances in %.2f s: %d SAT, %d UNSAT, "
                    "%d unknown, %d timeouts, %d skipped, %d errors\n",
                    report.records.size(), report.wall_s, report.sat,
                    report.unsat, report.unknown, report.timeouts,
                    report.skipped, report.errors);
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        service::writeJsonReport(report, out);
        if (!quiet)
            std::printf("wrote %s\n", json_path.c_str());
    }
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        service::writeCsvReport(report, out);
        if (!quiet)
            std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (out) {
            registry.writeJson(out);
            if (!quiet)
                std::printf("wrote %s\n", metrics_path.c_str());
        } else {
            std::fprintf(stderr, "cannot open metrics file %s\n",
                         metrics_path.c_str());
        }
    }

    if (strict && !report.allDecided())
        return 1;
    return 0;
}
