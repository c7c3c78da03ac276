#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <sstream>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/session_manager.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace hyqsat::service {

namespace {

/** send() the whole buffer; MSG_NOSIGNAL so a gone client is an
 *  error return, not a SIGPIPE. */
bool
sendAll(int fd, std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendLine(int fd, const std::string &line)
{
    return sendAll(fd, line + "\n");
}

/** Buffered line reader over one socket. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** Next '\n'-terminated line, '\r' stripped. False on EOF. */
    bool
    next(std::string &line)
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                return true;
            }
            char tmp[4096];
            const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
            if (n <= 0)
                return false;
            buf_.append(tmp, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
};

/** A SUBMIT or ADD body: the lines up to END. False if the client
 *  vanished first. */
bool
readBody(LineReader &reader, std::string &body)
{
    std::string line;
    while (reader.next(line)) {
        if (line == kEndMarker)
            return true;
        body += line;
        body += '\n';
    }
    return false;
}

} // namespace

Server::Server(ServerOptions opts, JobScheduler &scheduler,
               MetricsRegistry *metrics)
    : opts_(std::move(opts)), scheduler_(scheduler), metrics_(metrics)
{
}

Server::~Server()
{
    stop();
}

bool
Server::start()
{
    if (running_.load(std::memory_order_relaxed))
        return true;

    if (!opts_.unix_path.empty()) {
        sockaddr_un addr{};
        if (opts_.unix_path.size() >= sizeof(addr.sun_path)) {
            warn("unix socket path too long: %s",
                 opts_.unix_path.c_str());
            return false;
        }
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            return false;
        ::unlink(opts_.unix_path.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listen_fd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            warn("cannot bind %s: %s", opts_.unix_path.c_str(),
                 std::strerror(errno));
            closeListener();
            return false;
        }
        port_ = 0;
    } else {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            return false;
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(std::max(opts_.tcp_port, 0)));
        if (::bind(listen_fd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            warn("cannot bind 127.0.0.1:%d: %s", opts_.tcp_port,
                 std::strerror(errno));
            closeListener();
            return false;
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&bound), &len);
        port_ = static_cast<int>(ntohs(bound.sin_port));
    }

    if (::listen(listen_fd_, opts_.backlog) != 0) {
        warn("listen failed: %s", std::strerror(errno));
        closeListener();
        return false;
    }
    running_.store(true, std::memory_order_relaxed);
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::closeListener()
{
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void
Server::stop()
{
    if (!running_.exchange(false, std::memory_order_relaxed)) {
        closeListener();
        return;
    }
    // Wakes the accept loop blocked in accept().
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable())
        accept_thread_.join();
    closeListener();

    // The accept thread is gone, so the list only shrinks from here;
    // each connection thread closes its own fd and marks itself done
    // under the lock, so a done connection's fd is never touched.
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const Connection &c : conns_)
            if (!c.done)
                ::shutdown(c.fd, SHUT_RDWR);
    }
    for (Connection &c : conns_)
        c.thread.join();
    conns_.clear();
    if (!opts_.unix_path.empty())
        ::unlink(opts_.unix_path.c_str());
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (!running_.load(std::memory_order_relaxed)) {
            if (fd >= 0)
                ::close(fd);
            return;
        }
        if (fd < 0)
            continue; // EINTR from a stop signal, or an aborted peer

        // Join the finished connections: their threads have nothing
        // left but to exit, and each one's stack goes back now.
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conns_.remove_if([](Connection &c) {
            if (c.done)
                c.thread.join();
            return c.done;
        });
        if (static_cast<int>(conns_.size()) >= opts_.max_connections) {
            // Connection-level backpressure mirrors the scheduler's
            // admission control: an explicit no, not a silent hang.
            sendLine(fd, "ERR busy");
            ::close(fd);
            continue;
        }
        Connection &c = conns_.emplace_back();
        c.fd = fd;
        c.thread = std::thread([this, &c] {
            serveConnection(c.fd);
            std::lock_guard<std::mutex> inner(conn_mutex_);
            ::close(c.fd);
            c.done = true;
        });
    }
}

void
Server::serveConnection(int fd)
{
    LineReader reader(fd);
    std::string line;
    while (reader.next(line)) {
        const Request req = parseRequest(line);
        // A SUBMIT or ADD body is read even when the verb then fails
        // (sessions disabled), so the connection stays in sync. No
        // temp file round trip: the body parses from memory.
        std::string body;
        if ((req.verb == Verb::Submit || req.verb == Verb::Add) &&
            !readBody(reader, body))
            return; // client vanished mid-body
        std::string reply;
        switch (req.verb) {
        case Verb::Submit: {
            JobSpec spec;
            spec.tenant = req.tenant;
            spec.priority = req.priority;
            spec.name = req.name;
            spec.overrides = req.overrides;
            spec.dimacs = std::move(body);
            reply = formatSubmission(scheduler_.submit(std::move(spec)));
            break;
        }
        case Verb::Wait:
            reply = formatResult(req.id, scheduler_.wait(req.id));
            break;
        case Verb::Status: {
            const JobState state = scheduler_.state(req.id);
            std::string status;
            if (state == JobState::Done)
                status = scheduler_.wait(req.id).status;
            reply = formatState(req.id, state, status);
            break;
        }
        case Verb::Metrics: {
            std::ostringstream snap;
            snap << "METRICS\n";
            if (metrics_)
                metrics_->writeText(snap);
            snap << kEndMarker;
            reply = snap.str();
            break;
        }
        case Verb::Ping:
            reply = "PONG";
            break;
        case Verb::Shutdown:
            sendLine(fd, "OK shutdown");
            if (sessions_)
                sessions_->drain();
            if (on_shutdown_)
                on_shutdown_(req.drain_policy);
            continue;
        case Verb::Quit:
            sendLine(fd, "BYE");
            return;
        case Verb::Invalid:
            reply = "ERR " + req.error;
            break;
        default:
            reply = sessionReply(req, body);
            break;
        }
        if (!sendLine(fd, reply))
            return;
    }
}

std::string
Server::sessionReply(const Request &req, const std::string &body)
{
    if (!sessions_)
        return "ERR sessions disabled";
    const std::string ok = "OK " + std::to_string(req.id);
    switch (req.verb) {
    case Verb::Open: {
        const OpenResult res = sessions_->open(req.tenant, req.overrides);
        return res.accepted ? "OK " + std::to_string(res.id)
                            : "REJECTED " + res.reject_reason;
    }
    case Verb::Add: {
        const std::string err = sessions_->add(req.id, body);
        return err.empty() ? ok : "ERR " + err;
    }
    case Verb::Assume: {
        const std::string err = sessions_->assume(req.id, req.lits);
        return err.empty() ? ok : "ERR " + err;
    }
    case Verb::Solve: {
        const std::optional<InstanceRecord> rec = sessions_->solve(req.id);
        return rec ? formatResult(req.id, *rec) : "ERR unknown session";
    }
    case Verb::Core: {
        const std::optional<std::vector<int>> lits =
            sessions_->core(req.id);
        return lits ? formatCore(req.id, *lits) : "ERR unknown session";
    }
    default: // Verb::Close
        return sessions_->close(req.id) ? ok : "ERR unknown session";
    }
}

} // namespace hyqsat::service
