/**
 * @file
 * Example: line-protocol client for solver_daemon. Reads DIMACS
 * files into memory, streams them to the daemon as SUBMIT bodies
 * (the formula never touches the daemon's filesystem), WAITs for
 * each result, and prints the familiar batch table.
 *
 *   ./build/examples/service_client --connect unix:/tmp/hyqsat.sock
 *       [files...] [--tenant NAME] [--priority N]
 *       [--simplify off|light|full] [--metrics]
 *       [--session] [--assume "LITS"]...
 *       [--shutdown [finish|cancel]] [--strict] [--quiet]
 *
 * --simplify attaches the optional simplify=<level> token to every
 * SUBMIT, overriding the daemon's default inprocessing strength for
 * these jobs.
 *
 * --session switches to the incremental verbs: one session is
 * OPENed, every file is ADDed into it, then each --assume "1 -2 3"
 * (DIMACS ints; repeatable, in order) stages assumptions and SOLVEs
 * under them — UNSAT answers are followed by a CORE fetch naming the
 * failed assumptions. Without --assume there is a single free SOLVE.
 * The session keeps learnt clauses and embedding caches warm between
 * calls, so a series of related SOLVEs beats a series of SUBMITs.
 *
 * --connect takes unix:PATH or tcp:PORT (loopback). --metrics
 * fetches and prints the daemon's /metrics-style text snapshot
 * after the jobs finish; --shutdown asks the daemon to drain and
 * exit once everything submitted here has been answered. With
 * --strict the exit status is 1 unless every instance ended SAT or
 * UNSAT — mirroring batch_solver, which makes the two
 * interchangeable in CI smoke jobs.
 */

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/knobs.h"
#include "service/protocol.h"

using namespace hyqsat;

namespace {

/** Connect per --connect spec; -1 and a message on failure. */
int
connectTo(const std::string &spec)
{
    if (spec.rfind("unix:", 0) == 0) {
        const std::string path = spec.substr(5);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path)) {
            std::fprintf(stderr, "socket path too long: %s\n",
                         path.c_str());
            return -1;
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                                sizeof(addr)) != 0) {
            std::fprintf(stderr, "cannot connect to %s\n",
                         path.c_str());
            if (fd >= 0)
                ::close(fd);
            return -1;
        }
        return fd;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        const int port = std::atoi(spec.c_str() + 4);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                                sizeof(addr)) != 0) {
            std::fprintf(stderr, "cannot connect to 127.0.0.1:%d\n",
                         port);
            if (fd >= 0)
                ::close(fd);
            return -1;
        }
        return fd;
    }
    std::fprintf(stderr,
                 "--connect takes unix:PATH or tcp:PORT, got %s\n",
                 spec.c_str());
    return -1;
}

bool
sendAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n =
            ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/** Buffered newline-delimited reads (CRs stripped). */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    bool readLine(std::string &line)
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                buf_.erase(0, nl + 1);
                return true;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
};

std::string
baseName(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const auto dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        name.resize(dot);
    return name;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string connect_spec, tenant = "default";
    std::string simplify_level;
    std::vector<std::string> paths;
    std::vector<std::string> assume_sets;
    int priority = 0;
    bool want_metrics = false, want_shutdown = false;
    bool use_session = false;
    bool strict = false, quiet = false;
    service::DrainPolicy shutdown_policy =
        service::DrainPolicy::FinishQueued;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return !std::strcmp(argv[i], name) && i + 1 < argc;
        };
        if (arg("--connect")) {
            connect_spec = argv[++i];
        } else if (arg("--tenant")) {
            tenant = argv[++i];
        } else if (arg("--priority")) {
            priority = std::atoi(argv[++i]);
        } else if (arg("--simplify")) {
            simplify_level = argv[++i];
            // The same knob-table row the server validates OPEN with.
            if (!core::parseOverride("simplify=" + simplify_level,
                                     /*open=*/true)) {
                std::fprintf(stderr,
                             "bad --simplify level: %s (expected "
                             "off, light or full)\n",
                             simplify_level.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--metrics")) {
            want_metrics = true;
        } else if (!std::strcmp(argv[i], "--session")) {
            use_session = true;
        } else if (arg("--assume")) {
            assume_sets.push_back(argv[++i]);
        } else if (!std::strcmp(argv[i], "--shutdown")) {
            want_shutdown = true;
            if (i + 1 < argc && (!std::strcmp(argv[i + 1], "finish") ||
                                 !std::strcmp(argv[i + 1], "cancel"))) {
                ++i;
                if (!std::strcmp(argv[i], "cancel"))
                    shutdown_policy =
                        service::DrainPolicy::CancelPending;
            }
        } else if (!std::strcmp(argv[i], "--strict")) {
            strict = true;
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else {
            paths.push_back(argv[i]);
        }
    }

    if (connect_spec.empty() ||
        (paths.empty() && !want_metrics && !want_shutdown)) {
        std::printf(
            "usage: %s --connect unix:PATH|tcp:PORT [files...] "
            "[--tenant NAME] [--priority N] "
            "[--simplify off|light|full] [--metrics] "
            "[--session] [--assume \"LITS\"]... "
            "[--shutdown [finish|cancel]] [--strict] [--quiet]\n",
            argv[0]);
        return 2;
    }

    const int fd = connectTo(connect_spec);
    if (fd < 0)
        return 2;
    LineReader reader(fd);
    std::string line;
    bool all_decided = true;

    if (use_session) {
        // Incremental mode: one OPEN, every file ADDed into the same
        // warm session, one SOLVE per assumption set, CORE on UNSAT.
        std::string open_req = "OPEN " + tenant;
        if (!simplify_level.empty())
            open_req += " simplify=" + simplify_level;
        if (!sendAll(fd, open_req + "\n") || !reader.readLine(line) ||
            line.rfind("OK ", 0) != 0) {
            std::fprintf(stderr, "open failed: %s\n", line.c_str());
            ::close(fd);
            return 2;
        }
        const std::string sid = line.substr(3);

        for (const std::string &path : paths) {
            std::ifstream in(path, std::ios::binary);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n", path.c_str());
                ::close(fd);
                return 2;
            }
            std::ostringstream body;
            body << in.rdbuf();
            std::string request = "ADD " + sid + "\n" + body.str();
            if (request.empty() || request.back() != '\n')
                request += '\n';
            request += std::string(service::kEndMarker) + "\n";
            if (!sendAll(fd, request) || !reader.readLine(line) ||
                line.rfind("OK ", 0) != 0) {
                std::fprintf(stderr, "%s: %s\n", path.c_str(),
                             line.c_str());
                ::close(fd);
                return 2;
            }
        }

        // No --assume still means one (free) solve.
        if (assume_sets.empty())
            assume_sets.emplace_back();
        if (!quiet)
            std::printf("%-24s %-10s %9s %10s  %s\n", "solve",
                        "status", "wall_s", "conflicts",
                        "assumptions / core");
        for (std::size_t i = 0; i < assume_sets.size(); ++i) {
            const std::string &assume = assume_sets[i];
            if (!sendAll(fd, "ASSUME " + sid +
                                 (assume.empty() ? "" : " " + assume) +
                                 "\n") ||
                !reader.readLine(line) || line.rfind("OK ", 0) != 0) {
                std::fprintf(stderr, "assume failed: %s\n",
                             line.c_str());
                all_decided = false;
                continue;
            }
            if (!sendAll(fd, "SOLVE " + sid + "\n") ||
                !reader.readLine(line)) {
                std::fprintf(stderr, "connection lost during solve\n");
                ::close(fd);
                return 2;
            }
            const auto result = service::parseResult(line);
            if (!result) {
                std::fprintf(stderr, "bad RESULT line: %s\n",
                             line.c_str());
                all_decided = false;
                continue;
            }
            const service::InstanceRecord &rec = result->second;
            std::string detail =
                assume.empty() ? "(none)" : assume;
            if (rec.status == "UNSAT" &&
                sendAll(fd, "CORE " + sid + "\n") &&
                reader.readLine(line)) {
                if (const auto core = service::parseCore(line)) {
                    detail += "  core:";
                    if (core->second.empty())
                        detail += " (formula UNSAT)";
                    for (const int lit : core->second)
                        detail += " " + std::to_string(lit);
                }
            }
            if (!quiet)
                std::printf("%-24s %-10s %9.3f %10llu  %s\n",
                            ("#" + std::to_string(i + 1)).c_str(),
                            rec.status.c_str(), rec.wall_s,
                            static_cast<unsigned long long>(
                                rec.conflicts),
                            detail.c_str());
            if (rec.status != "SAT" && rec.status != "UNSAT")
                all_decided = false;
        }
        if (sendAll(fd, "CLOSE " + sid + "\n"))
            reader.readLine(line);
        paths.clear(); // the batch path below has nothing to do
    }

    // Submit everything up front (the daemon schedules), then wait
    // in input order so the table matches batch_solver's.
    std::vector<service::JobId> ids(paths.size(), 0);
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::ifstream in(paths[i], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n",
                         paths[i].c_str());
            all_decided = false;
            continue;
        }
        std::ostringstream body;
        body << in.rdbuf();
        std::string request = "SUBMIT " + tenant + " " +
                              std::to_string(priority) + " " +
                              baseName(paths[i]);
        if (!simplify_level.empty())
            request += " simplify=" + simplify_level;
        request += "\n";
        request += body.str();
        if (request.empty() || request.back() != '\n')
            request += '\n';
        request += std::string(service::kEndMarker) + "\n";
        if (!sendAll(fd, request) || !reader.readLine(line)) {
            std::fprintf(stderr, "connection lost during submit\n");
            ::close(fd);
            return 2;
        }
        if (line.rfind("OK ", 0) == 0) {
            ids[i] = std::strtoull(line.c_str() + 3, nullptr, 10);
        } else {
            // REJECTED <reason> (admission control) or ERR ...
            std::fprintf(stderr, "%s: %s\n", paths[i].c_str(),
                         line.c_str());
            all_decided = false;
        }
    }

    if (!paths.empty() && !quiet)
        std::printf("%-24s %-10s %-12s %9s %8s %10s\n", "instance",
                    "status", "winner", "wall_s", "vars",
                    "conflicts");
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (ids[i] == 0)
            continue;
        if (!sendAll(fd, "WAIT " + std::to_string(ids[i]) + "\n") ||
            !reader.readLine(line)) {
            std::fprintf(stderr, "connection lost during wait\n");
            ::close(fd);
            return 2;
        }
        const auto result = service::parseResult(line);
        if (!result) {
            std::fprintf(stderr, "bad RESULT line: %s\n",
                         line.c_str());
            all_decided = false;
            continue;
        }
        const service::InstanceRecord &rec = result->second;
        // RESULT lines don't carry the name; use the local one.
        if (!quiet)
            std::printf("%-24s %-10s %-12s %9.3f %8d %10llu\n",
                        baseName(paths[i]).c_str(), rec.status.c_str(),
                        rec.winner.c_str(), rec.wall_s, rec.vars,
                        static_cast<unsigned long long>(
                            rec.conflicts));
        if (rec.status != "SAT" && rec.status != "UNSAT")
            all_decided = false;
    }

    if (want_metrics) {
        if (!sendAll(fd, "METRICS\n") || !reader.readLine(line)) {
            std::fprintf(stderr, "connection lost during metrics\n");
            ::close(fd);
            return 2;
        }
        // "METRICS" header, `name value` lines, then END.
        while (reader.readLine(line) &&
               line != service::kEndMarker)
            std::printf("%s\n", line.c_str());
    }

    if (want_shutdown) {
        const char *policy =
            shutdown_policy == service::DrainPolicy::CancelPending
                ? "cancel"
                : "finish";
        if (sendAll(fd, std::string("SHUTDOWN ") + policy + "\n") &&
            reader.readLine(line) && !quiet)
            std::printf("shutdown: %s\n", line.c_str());
    }

    sendAll(fd, "QUIT\n");
    ::close(fd);
    return strict && !all_decided ? 1 : 0;
}
