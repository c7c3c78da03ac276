#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <sstream>

#include <netinet/in.h>
#include <poll.h>
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
    // Wake the accept loop (it polls running_ every 100 ms anyway).
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable())
        accept_thread_.join();
    closeListener();

    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const int fd : conn_fds_)
            if (fd >= 0)
                ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &t : conn_threads_)
        if (t.joinable())
            t.join();
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conn_threads_.clear();
        conn_fds_.clear();
    }
    if (!opts_.unix_path.empty())
        ::unlink(opts_.unix_path.c_str());
}

void
Server::acceptLoop()
{
    while (running_.load(std::memory_order_relaxed)) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (!running_.load(std::memory_order_relaxed))
            return;
        if (ready <= 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;

        std::lock_guard<std::mutex> lock(conn_mutex_);
        int live = 0;
        for (const int c : conn_fds_)
            if (c >= 0)
                ++live;
        if (live >= opts_.max_connections) {
            // Connection-level backpressure mirrors the scheduler's
            // admission control: an explicit no, not a silent hang.
            sendLine(fd, "ERR busy");
            ::close(fd);
            continue;
        }
        const std::size_t slot = conn_fds_.size();
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back([this, fd, slot] {
            serveConnection(fd);
            ::close(fd);
            std::lock_guard<std::mutex> inner(conn_mutex_);
            conn_fds_[slot] = -1;
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
        switch (req.verb) {
        case Verb::Submit: {
            // Body: DIMACS lines straight off the socket into
            // memory, terminated by END. No temp file round trip.
            std::string dimacs;
            bool eof = false;
            for (;;) {
                std::string body_line;
                if (!reader.next(body_line)) {
                    eof = true;
                    break;
                }
                if (body_line == kEndMarker)
                    break;
                dimacs += body_line;
                dimacs += '\n';
            }
            if (eof)
                return; // client vanished mid-body
            JobSpec spec;
            spec.tenant = req.tenant;
            spec.priority = req.priority;
            spec.name = req.name;
            spec.simplify = req.simplify;
            spec.topology = req.topology;
            spec.reads_groups = req.reads_groups;
            spec.dimacs = std::move(dimacs);
            const Submission sub = scheduler_.submit(std::move(spec));
            if (!sendLine(fd, formatSubmission(sub)))
                return;
            break;
        }
        case Verb::Wait: {
            const InstanceRecord rec = scheduler_.wait(req.id);
            if (!sendLine(fd, formatResult(req.id, rec)))
                return;
            break;
        }
        case Verb::Status: {
            const JobState state = scheduler_.state(req.id);
            std::string status;
            if (state == JobState::Done)
                status = scheduler_.wait(req.id).status;
            if (!sendLine(fd, formatState(req.id, state, status)))
                return;
            break;
        }
        case Verb::Metrics: {
            std::ostringstream snap;
            snap << "METRICS\n";
            if (metrics_)
                metrics_->writeText(snap);
            snap << kEndMarker << "\n";
            if (!sendAll(fd, snap.str()))
                return;
            break;
        }
        case Verb::Ping:
            if (!sendLine(fd, "PONG"))
                return;
            break;
        case Verb::Shutdown:
            sendLine(fd, "OK shutdown");
            if (sessions_)
                sessions_->drain();
            if (on_shutdown_)
                on_shutdown_(req.drain_policy);
            break;
        case Verb::Quit:
            sendLine(fd, "BYE");
            return;
        case Verb::Open: {
            if (!sessions_) {
                if (!sendLine(fd, "ERR sessions disabled"))
                    return;
                break;
            }
            const OpenResult res =
                sessions_->open(req.tenant, req.simplify);
            const std::string reply =
                res.accepted ? "OK " + std::to_string(res.id)
                             : "REJECTED " + res.reject_reason;
            if (!sendLine(fd, reply))
                return;
            break;
        }
        case Verb::Add: {
            // Body: clause lines off the socket until END, exactly
            // like a SUBMIT body. Read it even when sessions are
            // disabled so the connection stays line-synchronized.
            std::string dimacs;
            bool eof = false;
            for (;;) {
                std::string body_line;
                if (!reader.next(body_line)) {
                    eof = true;
                    break;
                }
                if (body_line == kEndMarker)
                    break;
                dimacs += body_line;
                dimacs += '\n';
            }
            if (eof)
                return;
            if (!sessions_) {
                if (!sendLine(fd, "ERR sessions disabled"))
                    return;
                break;
            }
            const std::string err = sessions_->add(req.id, dimacs);
            const std::string reply =
                err.empty() ? "OK " + std::to_string(req.id)
                            : "ERR " + err;
            if (!sendLine(fd, reply))
                return;
            break;
        }
        case Verb::Assume: {
            if (!sessions_) {
                if (!sendLine(fd, "ERR sessions disabled"))
                    return;
                break;
            }
            const std::string err =
                sessions_->assume(req.id, req.lits);
            const std::string reply =
                err.empty() ? "OK " + std::to_string(req.id)
                            : "ERR " + err;
            if (!sendLine(fd, reply))
                return;
            break;
        }
        case Verb::Solve: {
            if (!sessions_) {
                if (!sendLine(fd, "ERR sessions disabled"))
                    return;
                break;
            }
            const std::optional<InstanceRecord> rec =
                sessions_->solve(req.id);
            const std::string reply =
                rec ? formatResult(req.id, *rec)
                    : "ERR unknown session";
            if (!sendLine(fd, reply))
                return;
            break;
        }
        case Verb::Core: {
            if (!sessions_) {
                if (!sendLine(fd, "ERR sessions disabled"))
                    return;
                break;
            }
            const std::optional<std::vector<int>> lits =
                sessions_->core(req.id);
            const std::string reply = lits
                                          ? formatCore(req.id, *lits)
                                          : "ERR unknown session";
            if (!sendLine(fd, reply))
                return;
            break;
        }
        case Verb::Close: {
            if (!sessions_) {
                if (!sendLine(fd, "ERR sessions disabled"))
                    return;
                break;
            }
            const std::string reply =
                sessions_->close(req.id)
                    ? "OK " + std::to_string(req.id)
                    : "ERR unknown session";
            if (!sendLine(fd, reply))
                return;
            break;
        }
        case Verb::Invalid:
            if (!sendLine(fd, "ERR " + req.error))
                return;
            break;
        }
    }
}

} // namespace hyqsat::service
