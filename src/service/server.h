/**
 * @file
 * Socket front door of the solver service: a line-protocol server
 * (see protocol.h) over a unix-domain socket or loopback TCP,
 * feeding a JobScheduler. One accept thread plus one thread per
 * live connection; SUBMIT bodies are parsed straight from the
 * socket buffer into memory — no temp files anywhere on the hot
 * path. The accept loop joins every finished connection's thread
 * before it admits the next one, so a long-lived server holds only
 * its live connections' threads and stacks.
 *
 * Shutdown discipline: stop() shuts the listener down, which wakes
 * the accept loop blocked in accept(), then shuts every live
 * connection and joins all threads. The scheduler is NOT owned —
 * the daemon drains it first (so blocked WAITs resolve), then stops
 * the server.
 */

#ifndef HYQSAT_SERVICE_SERVER_H
#define HYQSAT_SERVICE_SERVER_H

#include <atomic>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "service/job.h"

namespace hyqsat {
class MetricsRegistry;
}

namespace hyqsat::service {

class JobScheduler;
class SessionManager;
struct Request;

/** Where to listen. Exactly one of the two should be set. */
struct ServerOptions
{
    /** Unix-domain socket path (unlinked on start and stop). */
    std::string unix_path;

    /** TCP port on 127.0.0.1; 0 with empty unix_path = ephemeral
     *  port (tests), reported by Server::port(). */
    int tcp_port = -1;

    int backlog = 16;

    /** Cap on live connections; extras are turned away with
     *  `ERR busy` (connection-level backpressure). */
    int max_connections = 64;
};

/** The line-protocol socket server. */
class Server
{
  public:
    /**
     * @p metrics backs the METRICS command (may be null: the command
     * then answers with an empty snapshot). @p scheduler must
     * outlive the server.
     */
    Server(ServerOptions opts, JobScheduler &scheduler,
           MetricsRegistry *metrics);

    /** stop()s if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + start the accept loop. False on bind error. */
    bool start();

    /** Stop accepting, close every connection, join all threads. */
    void stop();

    /** Bound TCP port (after start(); 0 for unix sockets). */
    int port() const { return port_; }

    bool running() const
    {
        return running_.load(std::memory_order_relaxed);
    }

    /**
     * Invoked (once) when a client sends SHUTDOWN; the daemon's main
     * loop uses it to trigger the same drain path as a signal.
     */
    void onShutdown(std::function<void(DrainPolicy)> fn)
    {
        on_shutdown_ = std::move(fn);
    }

    /**
     * Enable the incremental-session verbs (OPEN/ADD/ASSUME/SOLVE/
     * CORE/CLOSE) against @p sessions, which must outlive the
     * server. Without this the verbs answer `ERR sessions disabled`.
     * A client SHUTDOWN also drains the manager (no new opens).
     */
    void attachSessions(SessionManager *sessions)
    {
        sessions_ = sessions;
    }

  private:
    /** One accepted client and the thread serving it. */
    struct Connection
    {
        int fd = -1;
        bool done = false; ///< fd closed, thread exiting; conn_mutex_
        std::thread thread;
    };

    void acceptLoop();
    void serveConnection(int fd);
    void closeListener();

    /** The reply to a session verb; @p body is an ADD's clauses. */
    std::string sessionReply(const Request &req, const std::string &body);

    ServerOptions opts_;
    JobScheduler &scheduler_;
    MetricsRegistry *metrics_;
    SessionManager *sessions_ = nullptr;
    std::function<void(DrainPolicy)> on_shutdown_;

    int listen_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> running_{false};
    std::thread accept_thread_;

    std::mutex conn_mutex_;
    std::list<Connection> conns_; ///< stable addresses for the threads
};

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_SERVER_H
