/**
 * @file
 * Example: the persistent solver daemon. Binds the service socket
 * front door (unix-domain or loopback TCP) to a multi-tenant
 * JobScheduler and runs until asked to stop — the long-running
 * counterpart of the one-shot batch_solver.
 *
 *   ./build/examples/solver_daemon --socket /tmp/hyqsat.sock
 *       [--port N] [--jobs N] [--workers N] [--queue-depth N]
 *       [--tenant-depth N] [--timeout-s X] [--conflicts N]
 *       [--memory-mb M] [--sessions N] [--tenant-sessions N]
 *       [--drain finish|cancel] [--metrics FILE] [--trace FILE]
 *       [--quiet] [knob flags]
 *
 * The knob flags every front door shares set the default solver
 * configuration of every job and session; the knob table
 * (core/knobs.h) parses, range-checks and lists them in the usage
 * line, and marks which of them a SUBMIT or OPEN may override per
 * job with a key=value token. Every report row echoes the
 * effective simplify and topology.
 *
 * Clients speak the line protocol of service/protocol.h (SUBMIT /
 * WAIT / STATUS / METRICS / SHUTDOWN); the bundled service_client
 * is one such client, netcat is another. --jobs bounds concurrent
 * jobs, --workers the solver threads raced per job; --queue-depth /
 * --tenant-depth arm admission control (0 = unbounded).
 *
 * The incremental-session verbs (OPEN / ADD / ASSUME / SOLVE / CORE
 * / CLOSE) are served by a SessionManager sharing the same solver
 * configuration: a session keeps its learnt clauses, heuristics and
 * embedding caches warm across SOLVE calls. --sessions /
 * --tenant-sessions cap how many may be open at once (0 = unbounded).
 * --memory-mb also bounds each session: an ADD or ASSUME whose
 * largest variable would put the session's one-worker footprint
 * estimate past it answers ERR and leaves the session unchanged.
 *
 * Shutdown — via SIGINT/SIGTERM or a client's SHUTDOWN command —
 * drains gracefully: the scheduler stops accepting (submits answer
 * `REJECTED draining`), queued work is finished or cancelled per
 * --drain (SHUTDOWN's argument overrides), blocked WAITs resolve,
 * the metrics snapshot is written, and the process exits 0. A
 * second signal force-kills.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/knobs.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "service/signals.h"
#include "util/metrics.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    service::SchedulerOptions sopts;
    sopts.portfolio.base.annealer =
        anneal::QuantumAnnealer::Options::simulator();
    service::ServerOptions server_opts;
    service::SessionManagerOptions session_opts;
    service::DrainPolicy signal_policy =
        service::DrainPolicy::FinishQueued;
    std::string metrics_path, trace_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string error;
        if (core::parseFlag(argc, argv, i, sopts.portfolio.base, error))
            continue;
        if (!error.empty()) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        const auto arg = [&](const char *name) {
            return !std::strcmp(argv[i], name) && i + 1 < argc;
        };
        if (arg("--socket")) {
            server_opts.unix_path = argv[++i];
        } else if (arg("--port")) {
            core::parseNumberFlag(argv, i, error, server_opts.tcp_port, 0,
                                  65535);
        } else if (arg("--jobs")) {
            core::parseNumberFlag(argv, i, error, sopts.workers, 1,
                                  core::kMaxCount);
        } else if (arg("--workers")) {
            core::parseNumberFlag(argv, i, error,
                                  sopts.portfolio.num_workers, 1,
                                  core::kMaxCount);
        } else if (arg("--queue-depth")) {
            core::parseNumberFlag(argv, i, error, sopts.max_queue_depth,
                                  0);
        } else if (arg("--tenant-depth")) {
            core::parseNumberFlag(argv, i, error, sopts.max_tenant_depth,
                                  0);
        } else if (arg("--timeout-s")) {
            core::parseNumberFlag(argv, i, error,
                                  sopts.default_timeout_s, 0.0);
        } else if (arg("--conflicts")) {
            core::parseNumberFlag(argv, i, error,
                                  sopts.portfolio.conflict_budget, -1);
        } else if (arg("--memory-mb")) {
            core::parseNumberFlag(argv, i, error, sopts.memory_budget_mb,
                                  0);
        } else if (arg("--sessions")) {
            core::parseNumberFlag(argv, i, error,
                                  session_opts.max_sessions, 0);
        } else if (arg("--tenant-sessions")) {
            core::parseNumberFlag(argv, i, error,
                                  session_opts.max_per_tenant, 0);
        } else if (arg("--drain")) {
            const std::string policy = argv[++i];
            if (policy == "cancel") {
                signal_policy = service::DrainPolicy::CancelPending;
            } else if (policy != "finish") {
                std::fprintf(stderr,
                             "--drain takes finish or cancel\n");
                return 2;
            }
        } else if (arg("--metrics")) {
            metrics_path = argv[++i];
        } else if (arg("--trace")) {
            trace_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        }
        if (!error.empty()) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }

    if (server_opts.unix_path.empty() && server_opts.tcp_port < 0) {
        std::printf(
            "usage: %s --socket PATH | --port N [--jobs N] "
            "[--workers N] [--queue-depth N] [--tenant-depth N] "
            "[--timeout-s X] [--conflicts N] [--memory-mb M] "
            "[--sessions N] [--tenant-sessions N] "
            "[--drain finish|cancel] [--metrics FILE] "
            "[--trace FILE] [--quiet]%s\n",
            argv[0], core::flagUsage().c_str());
        return 2;
    }

    // One registry for the daemon's lifetime: per-tenant service.*
    // counters accumulate here and back the METRICS command.
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
    sopts.metrics = &registry;

    // Signals and the SHUTDOWN verb converge on one StopToken. Only
    // the main loop below reads it, so the drain always runs with
    // the policy the signal (--drain) or SHUTDOWN's argument chose.
    static StopToken stop;
    std::atomic<service::DrainPolicy> policy{signal_policy};
    service::installStopSignalHandlers(stop);

    service::JobScheduler scheduler(sopts);
    // Sessions reuse the portfolio's base solver configuration (so
    // the knob flags shape them too) and the daemon registry for the
    // service-level session.* counters.
    session_opts.hybrid = sopts.portfolio.base;
    session_opts.memory_budget_mb = sopts.memory_budget_mb;
    session_opts.metrics = &registry;
    service::SessionManager sessions(session_opts);
    service::Server server(server_opts, scheduler, &registry);
    server.attachSessions(&sessions);
    server.onShutdown([&](service::DrainPolicy p) {
        // Runs on a connection thread: record the policy and trip
        // the token; the main loop below does the actual teardown
        // (stopping the server from here would deadlock).
        policy.store(p, std::memory_order_relaxed);
        stop.requestStop();
    });
    if (!server.start()) {
        std::fprintf(stderr, "cannot bind %s\n",
                     server_opts.unix_path.empty()
                         ? ("127.0.0.1:" +
                            std::to_string(server_opts.tcp_port))
                               .c_str()
                         : server_opts.unix_path.c_str());
        return 2;
    }

    if (!quiet) {
        if (server_opts.unix_path.empty())
            std::printf("solver_daemon listening on 127.0.0.1:%d "
                        "(%d jobs x %d workers)\n",
                        server.port(), sopts.workers,
                        sopts.portfolio.num_workers);
        else
            std::printf("solver_daemon listening on %s "
                        "(%d jobs x %d workers)\n",
                        server_opts.unix_path.c_str(), sopts.workers,
                        sopts.portfolio.num_workers);
        std::fflush(stdout);
    }

    while (!stop.stopRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Drain order matters: quiesce the scheduler first so blocked
    // WAITs answer, then tear down the socket threads.
    const service::DrainPolicy final_policy =
        policy.load(std::memory_order_relaxed);
    if (!quiet)
        std::printf("draining (%s)...\n",
                    final_policy == service::DrainPolicy::CancelPending
                        ? "cancel"
                        : "finish");
    scheduler.shutdown(final_policy);
    server.stop();
    service::uninstallStopSignalHandlers();

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
    if (!quiet)
        std::printf("solver_daemon: clean shutdown\n");
    return 0;
}
