/**
 * @file
 * Socket front door end-to-end: a raw line-protocol client (no
 * shared code with the server beyond protocol.h) drives a real
 * daemon stack — Server + JobScheduler — over a unix-domain socket
 * and over loopback TCP with an ephemeral port. Covers SUBMIT/WAIT
 * round trips, STATUS, METRICS snapshots, PING, error replies for
 * bad verbs, the SHUTDOWN callback hand-off, the connection cap,
 * and that finished connections give their threads back.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "util/metrics.h"

namespace hyqsat::service {
namespace {

namespace fs = std::filesystem;

const char *kSatCnf = "c tiny satisfiable\n"
                      "p cnf 3 2\n"
                      "1 2 3 0\n"
                      "-1 2 0\n";

std::string
unsatCnf()
{
    std::string s = "p cnf 3 8\n";
    for (int mask = 0; mask < 8; ++mask) {
        for (int v = 0; v < 3; ++v)
            s += std::to_string((mask >> v) & 1 ? -(v + 1) : v + 1) +
                 " ";
        s += "0\n";
    }
    return s;
}

SchedulerOptions
smallOptions()
{
    SchedulerOptions opts;
    opts.portfolio.base.annealer.noise =
        anneal::NoiseModel::noiseFree();
    opts.portfolio.base.annealer.greedy_finish = true;
    opts.portfolio.num_workers = 2;
    opts.workers = 2;
    return opts;
}

/** Minimal blocking line client for the tests. */
class TestClient
{
  public:
    ~TestClient()
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
    connectTcp(int port)
    {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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

    /** SUBMIT + body + END; returns the accepted id (0 = rejected). */
    JobId
    submit(const std::string &tenant, int priority,
           const std::string &name, const std::string &dimacs)
    {
        std::string req = "SUBMIT " + tenant + " " +
                          std::to_string(priority) + " " + name + "\n";
        req += dimacs;
        if (req.back() != '\n')
            req += '\n';
        req += std::string(kEndMarker) + "\n";
        std::string line;
        if (!send(req) || !readLine(line) || line.rfind("OK ", 0) != 0)
            return 0;
        return std::strtoull(line.c_str() + 3, nullptr, 10);
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
            ("hyqsat_srv_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)) + ".sock"))
        .string();
}

TEST(ServiceServer, UnixSocketEndToEnd)
{
    MetricsRegistry metrics;
    SchedulerOptions sopts = smallOptions();
    sopts.metrics = &metrics;
    JobScheduler scheduler(sopts);

    ServerOptions opts;
    opts.unix_path = tempSocketPath();
    Server server(opts, scheduler, &metrics);
    ASSERT_TRUE(server.start());
    EXPECT_EQ(server.port(), 0);

    TestClient client;
    ASSERT_TRUE(client.connectUnix(opts.unix_path));

    std::string line;
    ASSERT_TRUE(client.send("PING\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "PONG");

    const JobId sat_id = client.submit("acme", 0, "easy", kSatCnf);
    const JobId unsat_id = client.submit("acme", 0, "hard", unsatCnf());
    ASSERT_NE(sat_id, 0u);
    ASSERT_NE(unsat_id, 0u);

    ASSERT_TRUE(
        client.send("WAIT " + std::to_string(sat_id) + "\n"));
    ASSERT_TRUE(client.readLine(line));
    auto result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->first, sat_id);
    EXPECT_EQ(result->second.status, "SAT");
    EXPECT_EQ(result->second.vars, 3);

    ASSERT_TRUE(
        client.send("WAIT " + std::to_string(unsat_id) + "\n"));
    ASSERT_TRUE(client.readLine(line));
    result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->second.status, "UNSAT");

    // Finished jobs answer STATUS with DONE plus the verdict.
    ASSERT_TRUE(
        client.send("STATUS " + std::to_string(sat_id) + "\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line,
              "STATE " + std::to_string(sat_id) + " DONE SAT");

    // The metrics snapshot carries the service accounting.
    ASSERT_TRUE(client.send("METRICS\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "METRICS");
    bool saw_completed = false;
    while (client.readLine(line) && line != kEndMarker) {
        if (line == "hyqsat_service_completed 2")
            saw_completed = true;
    }
    EXPECT_TRUE(saw_completed);

    ASSERT_TRUE(client.send("QUIT\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "BYE");

    scheduler.shutdown(DrainPolicy::FinishQueued);
    server.stop();
    EXPECT_FALSE(fs::exists(opts.unix_path));
}

TEST(ServiceServer, TcpEphemeralPortEndToEnd)
{
    JobScheduler scheduler(smallOptions());
    ServerOptions opts;
    opts.tcp_port = 0; // ephemeral; the kernel picks
    Server server(opts, scheduler, nullptr);
    ASSERT_TRUE(server.start());
    ASSERT_GT(server.port(), 0);

    TestClient client;
    ASSERT_TRUE(client.connectTcp(server.port()));

    const JobId id = client.submit("tcp", 0, "easy", kSatCnf);
    ASSERT_NE(id, 0u);
    std::string line;
    ASSERT_TRUE(client.send("WAIT " + std::to_string(id) + "\n"));
    ASSERT_TRUE(client.readLine(line));
    const auto result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->second.status, "SAT");

    // A metrics-less server still answers METRICS (empty snapshot).
    ASSERT_TRUE(client.send("METRICS\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "METRICS");
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, kEndMarker);

    scheduler.shutdown(DrainPolicy::FinishQueued);
    server.stop();
}

TEST(ServiceServer, MalformedRequestsAnswerErr)
{
    JobScheduler scheduler(smallOptions());
    ServerOptions opts;
    opts.unix_path = tempSocketPath();
    Server server(opts, scheduler, nullptr);
    ASSERT_TRUE(server.start());

    TestClient client;
    ASSERT_TRUE(client.connectUnix(opts.unix_path));
    std::string line;
    ASSERT_TRUE(client.send("FROBNICATE\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
    ASSERT_TRUE(client.send("WAIT nope\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
    // The connection survives bad requests.
    ASSERT_TRUE(client.send("PING\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "PONG");

    scheduler.shutdown(DrainPolicy::FinishQueued);
    server.stop();
}

TEST(ServiceServer, ParseErrorTravelsBackToClient)
{
    JobScheduler scheduler(smallOptions());
    ServerOptions opts;
    opts.unix_path = tempSocketPath();
    Server server(opts, scheduler, nullptr);
    ASSERT_TRUE(server.start());

    TestClient client;
    ASSERT_TRUE(client.connectUnix(opts.unix_path));
    const JobId id =
        client.submit("acme", 0, "broken", "p cnf oops\n1 2 0\n");
    ASSERT_NE(id, 0u); // admission accepts; the parse fails later
    std::string line;
    ASSERT_TRUE(client.send("WAIT " + std::to_string(id) + "\n"));
    ASSERT_TRUE(client.readLine(line));
    const auto result = parseResult(line);
    ASSERT_TRUE(result.has_value()) << line;
    EXPECT_EQ(result->second.status, "PARSE_ERROR");

    scheduler.shutdown(DrainPolicy::FinishQueued);
    server.stop();
}

TEST(ServiceServer, ShutdownVerbInvokesCallback)
{
    JobScheduler scheduler(smallOptions());
    ServerOptions opts;
    opts.unix_path = tempSocketPath();
    Server server(opts, scheduler, nullptr);
    std::atomic<bool> asked{false};
    std::atomic<int> policy{-1};
    server.onShutdown([&](DrainPolicy p) {
        policy.store(static_cast<int>(p));
        asked.store(true);
    });
    ASSERT_TRUE(server.start());

    TestClient client;
    ASSERT_TRUE(client.connectUnix(opts.unix_path));
    std::string line;
    ASSERT_TRUE(client.send("SHUTDOWN cancel\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "OK shutdown");
    // The reply races only the callback flag, not the teardown: the
    // daemon's main loop owns the actual drain.
    for (int i = 0; i < 500 && !asked.load(); ++i)
        ::usleep(1000);
    EXPECT_TRUE(asked.load());
    EXPECT_EQ(policy.load(),
              static_cast<int>(DrainPolicy::CancelPending));

    scheduler.shutdown(DrainPolicy::CancelPending);
    server.stop();
}

/** This process's VmSize in kB (0 when /proc is unreadable). */
long
vmSizeKb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmSize:") {
            long kb = 0;
            in >> kb;
            return kb;
        }
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0;
}

/** PING, QUIT, then read to the server's close of the connection. */
void
pingQuit(const std::string &path)
{
    TestClient client;
    ASSERT_TRUE(client.connectUnix(path));
    std::string line;
    ASSERT_TRUE(client.send("PING\nQUIT\n"));
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "PONG");
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "BYE");
    EXPECT_FALSE(client.readLine(line)); // the server closed its end
}

TEST(ServiceServer, SequentialConnectionsDoNotGrowTheServer)
{
    // Every finished connection's thread is joined at the next
    // accept. A thread never joined keeps its stack, about 8 MB of
    // address space, so 60 of them would far exceed the bound.
    JobScheduler scheduler(smallOptions());
    ServerOptions opts;
    opts.unix_path = tempSocketPath();
    Server server(opts, scheduler, nullptr);
    ASSERT_TRUE(server.start());

    for (int i = 0; i < 4; ++i) // warm the allocator and stack caches
        pingQuit(opts.unix_path);
    const long before = vmSizeKb();
    if (before == 0)
        GTEST_SKIP() << "no /proc/self/status";
    for (int i = 0; i < 60; ++i)
        pingQuit(opts.unix_path);
    const long after = vmSizeKb();
    EXPECT_LT(after - before, 64 * 1024)
        << "VmSize " << before << " kB -> " << after << " kB";

    scheduler.shutdown(DrainPolicy::FinishQueued);
    server.stop();
}

TEST(ServiceServer, MaxConnectionsTurnsExtrasAway)
{
    JobScheduler scheduler(smallOptions());
    ServerOptions opts;
    opts.unix_path = tempSocketPath();
    opts.max_connections = 1;
    Server server(opts, scheduler, nullptr);
    ASSERT_TRUE(server.start());

    std::string line;
    TestClient first;
    ASSERT_TRUE(first.connectUnix(opts.unix_path));
    ASSERT_TRUE(first.send("PING\n"));
    ASSERT_TRUE(first.readLine(line)); // served: it holds the one slot
    EXPECT_EQ(line, "PONG");

    TestClient second;
    ASSERT_TRUE(second.connectUnix(opts.unix_path));
    ASSERT_TRUE(second.readLine(line));
    EXPECT_EQ(line, "ERR busy");
    EXPECT_FALSE(second.readLine(line));

    // Once the first client has gone, its slot serves a new one.
    ASSERT_TRUE(first.send("QUIT\n"));
    ASSERT_TRUE(first.readLine(line));
    EXPECT_EQ(line, "BYE");
    EXPECT_FALSE(first.readLine(line));
    pingQuit(opts.unix_path);

    scheduler.shutdown(DrainPolicy::FinishQueued);
    server.stop();
}

} // namespace
} // namespace hyqsat::service
