/**
 * @file
 * The service-side incremental sessions: protocol round trips for
 * the OPEN/ADD/ASSUME/SOLVE/CORE/CLOSE verbs, SessionManager
 * lifecycle + admission control + drain + the session.* metrics
 * invariant (opened == closed + active), a raw socket client driving
 * a session end-to-end through the Server, and concurrent tenants
 * solving in parallel (the TSan target).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "util/metrics.h"

namespace hyqsat::service {
namespace {

namespace fs = std::filesystem;

/** Tiny topology, no embedding — the fast session config. */
SessionManagerOptions
smallSessionOptions()
{
    SessionManagerOptions opts;
    opts.hybrid.chimera_rows = 2;
    opts.hybrid.chimera_cols = 2;
    opts.hybrid.sampler = "sa";
    opts.hybrid.warmup_override = 4;
    return opts;
}

// ---------------------------------------------------------------
// Protocol round trips
// ---------------------------------------------------------------

TEST(SessionProtocol, OpenParsesTenantAndSimplify)
{
    Request req = parseRequest("OPEN acme");
    EXPECT_EQ(req.verb, Verb::Open);
    EXPECT_EQ(req.tenant, "acme");
    EXPECT_TRUE(req.overrides.empty());

    req = parseRequest("OPEN acme simplify=full");
    EXPECT_EQ(req.verb, Verb::Open);
    ASSERT_EQ(req.overrides.size(), 1u);
    EXPECT_STREQ(req.overrides[0].knob->key, "simplify");
    EXPECT_EQ(req.overrides[0].value, "full");

    EXPECT_EQ(parseRequest("OPEN acme simplify=bogus").verb,
              Verb::Invalid);
    EXPECT_EQ(parseRequest("OPEN").verb, Verb::Invalid);
}

TEST(SessionProtocol, IdVerbsParseTheirSid)
{
    const struct
    {
        const char *line;
        Verb verb;
    } cases[] = {
        {"ADD 7", Verb::Add},     {"SOLVE 7", Verb::Solve},
        {"CORE 7", Verb::Core},   {"CLOSE 7", Verb::Close},
    };
    for (const auto &c : cases) {
        const Request req = parseRequest(c.line);
        EXPECT_EQ(req.verb, c.verb) << c.line;
        EXPECT_EQ(req.id, 7u) << c.line;
    }
    EXPECT_EQ(parseRequest("ADD nope").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("SOLVE").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("CLOSE 1 2").verb, Verb::Invalid);
}

TEST(SessionProtocol, AssumeParsesDimacsLiterals)
{
    Request req = parseRequest("ASSUME 3 1 -2 5");
    EXPECT_EQ(req.verb, Verb::Assume);
    EXPECT_EQ(req.id, 3u);
    EXPECT_EQ(req.lits, (std::vector<int>{1, -2, 5}));

    // Empty set clears any staged assumptions — still valid.
    req = parseRequest("ASSUME 3");
    EXPECT_EQ(req.verb, Verb::Assume);
    EXPECT_TRUE(req.lits.empty());

    EXPECT_EQ(parseRequest("ASSUME 3 0").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("ASSUME 3 1 x").verb, Verb::Invalid);
}

TEST(SessionProtocol, CoreRoundTrips)
{
    const std::vector<int> lits{1, -3, 7};
    const std::string line = formatCore(9, lits);
    EXPECT_EQ(line, "CORE 9 1 -3 7");
    const auto parsed = parseCore(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, 9u);
    EXPECT_EQ(parsed->second, lits);

    // The empty core (formula UNSAT outright) round-trips too.
    const auto empty = parseCore(formatCore(4, {}));
    ASSERT_TRUE(empty.has_value());
    EXPECT_EQ(empty->first, 4u);
    EXPECT_TRUE(empty->second.empty());

    EXPECT_FALSE(parseCore("CORE").has_value());
    EXPECT_FALSE(parseCore("CORE 4 0").has_value());
    EXPECT_FALSE(parseCore("RESULT 4 1").has_value());
}

// ---------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------

TEST(SessionManager, OpenAddAssumeSolveCoreCloseLifecycle)
{
    SessionManager manager(smallSessionOptions());
    const OpenResult open = manager.open("acme", {});
    ASSERT_TRUE(open.accepted) << open.reject_reason;
    ASSERT_NE(open.id, 0u);

    // x1 -> x2 -> x3 as 3-SAT-friendly binary clauses.
    EXPECT_EQ(manager.add(open.id,
                          "c chain\n-1 2 0\n-2 3 0\n"),
              "");
    auto rec = manager.solve(open.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "SAT");
    EXPECT_EQ(rec->winner, "session");
    EXPECT_EQ(rec->name, "session-" + std::to_string(open.id));

    // Assume x1 and !x3: contradicts the chain.
    EXPECT_EQ(manager.assume(open.id, {1, -3}), "");
    rec = manager.solve(open.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "UNSAT");
    const auto core = manager.core(open.id);
    ASSERT_TRUE(core.has_value());
    ASSERT_FALSE(core->empty());
    for (const int lit : *core)
        EXPECT_TRUE(lit == 1 || lit == -3) << lit;

    // Assumptions were consumed: the next solve is free again.
    rec = manager.solve(open.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "SAT");

    EXPECT_TRUE(manager.close(open.id));
    EXPECT_FALSE(manager.close(open.id));
    EXPECT_FALSE(manager.solve(open.id).has_value());
    EXPECT_FALSE(manager.core(open.id).has_value());
    EXPECT_EQ(manager.add(open.id, "1 0\n"), "unknown session");
}

TEST(SessionManager, AddRejectsMalformedBodies)
{
    SessionManager manager(smallSessionOptions());
    const OpenResult open = manager.open("acme", {});
    ASSERT_TRUE(open.accepted);
    EXPECT_NE(manager.add(open.id, "1 two 0\n"), "");
    EXPECT_NE(manager.add(open.id, "1 2 3\n"), ""); // missing 0
    EXPECT_EQ(manager.add(open.id, "1 2 3 4 0\n"),
              "clause too long (3-SAT required)");
    // A rejected body leaves the session usable.
    EXPECT_EQ(manager.add(open.id, "p cnf 2 1\n1 2 0\n"), "");
    const auto rec = manager.solve(open.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "SAT");
}

TEST(SessionManager, LiteralsBeyondTheLitBoundAreRejected)
{
    SessionManager manager(smallSessionOptions());
    // 2^30 is the largest literal a sat::Lit packs: accepted (the
    // session is closed unsolved; solving would allocate 2^30 vars).
    const OpenResult edge = manager.open("acme", {});
    ASSERT_TRUE(edge.accepted);
    EXPECT_EQ(manager.add(edge.id, "1073741824 -1073741824 0\n"), "");
    EXPECT_EQ(manager.assume(edge.id, {1073741824, -1073741824}), "");
    EXPECT_TRUE(manager.close(edge.id));

    const OpenResult open = manager.open("acme", {});
    ASSERT_TRUE(open.accepted);
    for (const char *lit : {"1073741825", "-1073741825", "2147483647",
                            "-2147483647", "-2147483648"}) {
        EXPECT_EQ(manager.add(open.id, std::string(lit) + " 0\n"),
                  std::string("literal out of range: ") + lit);
    }
    for (const int lit : {1073741825, -1073741825, INT32_MAX,
                          -INT32_MAX, INT32_MIN}) {
        EXPECT_EQ(manager.assume(open.id, {1, lit}),
                  "literal out of range: " + std::to_string(lit));
    }
    // Nothing half-applied: the session solves its valid clauses.
    EXPECT_EQ(manager.add(open.id, "1 2 0\n-1 0\n"), "");
    const auto rec = manager.solve(open.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "SAT");
}

TEST(SessionManager, AdmissionCapsRejectWithReasons)
{
    SessionManagerOptions opts = smallSessionOptions();
    opts.max_sessions = 3;
    opts.max_per_tenant = 2;
    SessionManager manager(opts);

    ASSERT_TRUE(manager.open("a", {}).accepted);
    ASSERT_TRUE(manager.open("a", {}).accepted);
    const OpenResult tenant_full = manager.open("a", {});
    EXPECT_FALSE(tenant_full.accepted);
    EXPECT_EQ(tenant_full.reject_reason, "tenant_sessions_full");

    ASSERT_TRUE(manager.open("b", {}).accepted);
    const OpenResult global_full = manager.open("c", {});
    EXPECT_FALSE(global_full.accepted);
    EXPECT_EQ(global_full.reject_reason, "sessions_full");
    EXPECT_EQ(manager.active(), 3u);
}

TEST(SessionManager, DrainRejectsOpensButServesLiveSessions)
{
    SessionManager manager(smallSessionOptions());
    const OpenResult open = manager.open("acme", {});
    ASSERT_TRUE(open.accepted);
    EXPECT_EQ(manager.add(open.id, "1 2 0\n"), "");

    manager.drain();
    EXPECT_TRUE(manager.draining());
    const OpenResult rejected = manager.open("acme", {});
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reject_reason, "draining");

    const auto rec = manager.solve(open.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "SAT");
    EXPECT_TRUE(manager.close(open.id));
}

TEST(SessionManager, MetricsInvariantOpenedEqualsClosedPlusActive)
{
    MetricsRegistry registry;
    SessionManagerOptions opts = smallSessionOptions();
    opts.metrics = &registry;
    {
        SessionManager manager(opts);
        const OpenResult a = manager.open("a", {});
        const OpenResult b = manager.open("b", {});
        ASSERT_TRUE(a.accepted);
        ASSERT_TRUE(b.accepted);
        // A value its row rejects keeps the configured default.
        core::KnobOverride bogus = *core::parseOverride("simplify=off", true);
        bogus.value = "bogus-is-kept-default";
        manager.open("a", {bogus});
        EXPECT_TRUE(manager.close(a.id));

        EXPECT_EQ(registry.counter("session.opened")->value(), 3u);
        EXPECT_EQ(registry.counter("session.closed")->value(), 1u);
        EXPECT_EQ(registry.gauge("session.active")->value(), 2.0);
        // The invariant CI asserts on the daemon's snapshot.
        EXPECT_EQ(registry.counter("session.opened")->value(),
                  registry.counter("session.closed")->value() +
                      static_cast<std::uint64_t>(
                          registry.gauge("session.active")->value()));
    }
    // The destructor force-closes stragglers: terminally closed ==
    // opened and nothing is active.
    EXPECT_EQ(registry.counter("session.closed")->value(), 3u);
    EXPECT_EQ(registry.gauge("session.active")->value(), 0.0);
}

TEST(SessionManager, SimplifyOverridePerSession)
{
    SessionManagerOptions opts = smallSessionOptions();
    opts.hybrid.simplify_strength = simplify::Strength::Off;
    SessionManager manager(opts);
    const OpenResult open =
        manager.open("acme", {*core::parseOverride("simplify=full", true)});
    ASSERT_TRUE(open.accepted);
    EXPECT_EQ(manager.add(open.id, "1 2 0\n-1 2 0\n"), "");
    const auto rec = manager.solve(open.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "SAT");
    EXPECT_EQ(rec->simplify, "full");
}

// ---------------------------------------------------------------
// Server end-to-end (named ServiceSessions: the TSan CI target)
// ---------------------------------------------------------------

/** Minimal blocking line client (mirrors test_server.cpp's). */
class SessionClient
{
  public:
    ~SessionClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool
    connectUnix(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        return fd_ >= 0 &&
               ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) == 0;
    }

    bool
    send(const std::string &data)
    {
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    readLine(std::string &line)
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
            char tmp[4096];
            const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
            if (n <= 0)
                return false;
            buf_.append(tmp, static_cast<std::size_t>(n));
        }
    }

    /** One request line in, one reply line out. */
    std::string
    exchange(const std::string &request)
    {
        std::string line;
        if (!send(request + "\n") || !readLine(line))
            return "<dead>";
        return line;
    }

    /** OPEN; returns the sid (0 = rejected/disabled). */
    JobId
    open(const std::string &tenant)
    {
        const std::string line = exchange("OPEN " + tenant);
        if (line.rfind("OK ", 0) != 0)
            return 0;
        return std::strtoull(line.c_str() + 3, nullptr, 10);
    }

    /** ADD + clause body + END; returns the reply line. */
    std::string
    add(JobId sid, const std::string &body)
    {
        std::string req = "ADD " + std::to_string(sid) + "\n" + body;
        if (!req.empty() && req.back() != '\n')
            req += '\n';
        req += std::string(kEndMarker) + "\n";
        std::string line;
        if (!send(req) || !readLine(line))
            return "<dead>";
        return line;
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

std::string
tempSocketPath()
{
    static std::atomic<int> counter{0};
    return (fs::temp_directory_path() /
            ("hyqsat_sess_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)) + ".sock"))
        .string();
}

/** Server + scheduler + session manager over a unix socket. */
struct SessionStack
{
    SessionStack()
        : scheduler(schedulerOptions()),
          sessions(smallSessionOptions()),
          server(serverOptions(), scheduler, nullptr)
    {
        server.attachSessions(&sessions);
    }

    ~SessionStack()
    {
        scheduler.shutdown(DrainPolicy::CancelPending);
        server.stop();
    }

    static SchedulerOptions
    schedulerOptions()
    {
        SchedulerOptions opts;
        opts.portfolio.num_workers = 1;
        opts.workers = 1;
        return opts;
    }

    ServerOptions
    serverOptions()
    {
        ServerOptions opts;
        opts.unix_path = socket_path;
        return opts;
    }

    std::string socket_path = tempSocketPath();
    JobScheduler scheduler;
    SessionManager sessions;
    Server server;
};

TEST(ServiceSessions, SocketSessionLifecycleEndToEnd)
{
    SessionStack stack;
    ASSERT_TRUE(stack.server.start());

    SessionClient client;
    ASSERT_TRUE(client.connectUnix(stack.socket_path));

    const JobId sid = client.open("acme");
    ASSERT_NE(sid, 0u);

    EXPECT_EQ(client.add(sid, "-1 2 0\n-2 3 0\n"),
              "OK " + std::to_string(sid));

    std::string line = client.exchange("SOLVE " + std::to_string(sid));
    auto result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->first, sid);
    EXPECT_EQ(result->second.status, "SAT");
    EXPECT_EQ(result->second.winner, "session");

    // Assume into the chain's contradiction, mine the core.
    EXPECT_EQ(client.exchange("ASSUME " + std::to_string(sid) +
                              " 1 -3"),
              "OK " + std::to_string(sid));
    line = client.exchange("SOLVE " + std::to_string(sid));
    result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->second.status, "UNSAT");

    line = client.exchange("CORE " + std::to_string(sid));
    const auto core = parseCore(line);
    ASSERT_TRUE(core.has_value()) << line;
    EXPECT_EQ(core->first, sid);
    ASSERT_FALSE(core->second.empty());
    for (const int lit : core->second)
        EXPECT_TRUE(lit == 1 || lit == -3) << lit;

    // Warm continuation: add a clause, solve again without the
    // assumptions — the session state carried across the round trips.
    EXPECT_EQ(client.add(sid, "1 2 3 0\n"),
              "OK " + std::to_string(sid));
    line = client.exchange("SOLVE " + std::to_string(sid));
    result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->second.status, "SAT");

    EXPECT_EQ(client.exchange("CLOSE " + std::to_string(sid)),
              "OK " + std::to_string(sid));
    EXPECT_EQ(client.exchange("SOLVE " + std::to_string(sid)),
              "ERR unknown session");
}

TEST(ServiceSessions, OutOfRangeLiteralsAnswerErrAndDaemonStaysUp)
{
    SessionStack stack;
    ASSERT_TRUE(stack.server.start());

    SessionClient client;
    ASSERT_TRUE(client.connectUnix(stack.socket_path));
    const JobId sid = client.open("acme");
    ASSERT_NE(sid, 0u);
    const std::string id = std::to_string(sid);

    for (const char *lit :
         {"1073741825", "2147483647", "-2147483648"}) {
        EXPECT_EQ(client.add(sid, std::string(lit) + " 0\n").rfind(
                      "ERR ", 0),
                  0u)
            << lit;
        EXPECT_EQ(client.exchange("ASSUME " + id + " " + lit)
                      .rfind("ERR ", 0),
                  0u)
            << lit;
    }
    EXPECT_EQ(client.add(sid, "1 2 0\n"), "OK " + id);
    EXPECT_EQ(client.exchange("ASSUME " + id + " -1"), "OK " + id);
    const std::string line = client.exchange("SOLVE " + id);
    const auto result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->second.status, "SAT");
}

TEST(ServiceSessions, DisabledSessionsAnswerErrAndStaySynchronized)
{
    JobScheduler scheduler(SessionStack::schedulerOptions());
    ServerOptions opts;
    opts.unix_path = tempSocketPath();
    Server server(opts, scheduler, nullptr); // no attachSessions
    ASSERT_TRUE(server.start());

    SessionClient client;
    ASSERT_TRUE(client.connectUnix(opts.unix_path));
    EXPECT_EQ(client.exchange("OPEN acme"), "ERR sessions disabled");
    // The ADD body must be consumed even though sessions are off —
    // otherwise its clause lines would parse as requests.
    EXPECT_EQ(client.add(1, "1 2 0\n"), "ERR sessions disabled");
    EXPECT_EQ(client.exchange("PING"), "PONG");

    scheduler.shutdown(DrainPolicy::CancelPending);
    server.stop();
}

TEST(ServiceSessions, ShutdownVerbDrainsTheManager)
{
    SessionStack stack;
    std::atomic<bool> asked{false};
    stack.server.onShutdown([&](DrainPolicy) { asked.store(true); });
    ASSERT_TRUE(stack.server.start());

    SessionClient client;
    ASSERT_TRUE(client.connectUnix(stack.socket_path));
    EXPECT_EQ(client.exchange("SHUTDOWN"), "OK shutdown");
    for (int i = 0; i < 500 && !asked.load(); ++i)
        ::usleep(1000);
    EXPECT_TRUE(asked.load());
    EXPECT_TRUE(stack.sessions.draining());
    EXPECT_EQ(client.exchange("OPEN late"), "REJECTED draining");
}

TEST(ServiceSessions, ConcurrentTenantsSolveInParallel)
{
    SessionStack stack;
    ASSERT_TRUE(stack.server.start());

    // Each thread is one tenant with its own connection and session:
    // independent sessions must not serialize or trample each other
    // (the registry lock is per-verb, the session lock per-session).
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            SessionClient client;
            if (!client.connectUnix(stack.socket_path)) {
                ++failures;
                return;
            }
            const JobId sid =
                client.open("tenant" + std::to_string(t));
            if (sid == 0) {
                ++failures;
                return;
            }
            // Per-tenant pivot variable keeps the formulas distinct.
            const int pivot = t + 1;
            if (client.add(sid, std::to_string(pivot) + " " +
                                    std::to_string(pivot + 10) +
                                    " 0\n") !=
                "OK " + std::to_string(sid)) {
                ++failures;
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                // SAT under the positive pivot...
                if (client.exchange("ASSUME " + std::to_string(sid) +
                                    " " + std::to_string(pivot)) !=
                    "OK " + std::to_string(sid)) {
                    ++failures;
                    return;
                }
                auto result = parseResult(client.exchange(
                    "SOLVE " + std::to_string(sid)));
                if (!result || result->second.status != "SAT") {
                    ++failures;
                    return;
                }
            }
            if (client.exchange("CLOSE " + std::to_string(sid)) !=
                "OK " + std::to_string(sid))
                ++failures;
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(stack.sessions.active(), 0u);
}

} // namespace
} // namespace hyqsat::service
