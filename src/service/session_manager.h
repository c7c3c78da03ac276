/**
 * @file
 * Per-tenant incremental-session registry for the solver service:
 * each OPEN gets a core::Session (warm IPASIR-style state) retained
 * across protocol round trips until CLOSE, with the same bounded
 * admission control the job scheduler applies to one-shot work.
 *
 * Concurrency: a global lock guards the registry maps; each session
 * carries its own lock, so two clients driving different sessions
 * solve in parallel while two requests racing the *same* session
 * serialize. SOLVE runs inline on the calling connection thread —
 * sessions are interactive state, not queued batch work.
 *
 * Metrics invariant (tested, asserted by CI): session.opened ==
 * session.closed + session.active at any quiescent point; the
 * destructor force-closes stragglers so the invariant also holds
 * terminally.
 */

#ifndef HYQSAT_SERVICE_SESSION_MANAGER_H
#define HYQSAT_SERVICE_SESSION_MANAGER_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "service/job.h"
#include "service/report.h"

namespace hyqsat::service {

/** Session identifier handed to clients (0 = invalid). */
using SessionId = std::uint64_t;

/** SessionManager configuration. */
struct SessionManagerOptions
{
    /** Base hybrid configuration each session copies. Its metrics
     *  pointer is ignored — the manager owns observability. */
    core::HybridConfig hybrid;

    /** Global cap on concurrently open sessions; 0 = unbounded. */
    std::size_t max_sessions = 64;

    /** Per-tenant cap ("tenant_sessions_full"); 0 = unbounded. */
    std::size_t max_per_tenant = 8;

    /** Registry for the session.* counters; nullptr records
     *  nothing (invariant queries then always return zero). */
    MetricsRegistry *metrics = nullptr;
};

/** Verdict of one OPEN. */
struct OpenResult
{
    bool accepted = false;
    SessionId id = 0;          ///< valid iff accepted
    std::string reject_reason; ///< "sessions_full",
                               ///< "tenant_sessions_full", "draining"
};

/** The per-tenant session registry (thread-safe). */
class SessionManager
{
  public:
    explicit SessionManager(SessionManagerOptions opts);

    /** Force-closes every remaining session. */
    ~SessionManager();

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    /**
     * Open a session for @p tenant, its base config retargeted by
     * the validated OPEN @p overrides (core/knobs.h).
     */
    OpenResult open(const std::string &tenant,
                    const core::KnobOverrides &overrides);

    /**
     * Add clauses from DIMACS text (a full file with a `p cnf`
     * header or bare clause lines, each 0-terminated). 3-SAT only.
     * @return "" on success, else a diagnostic for an ERR reply.
     */
    std::string add(SessionId sid, const std::string &dimacs);

    /**
     * Stage assumptions (DIMACS ints) for this session's next
     * solve(); they replace any previously staged set and are
     * consumed by it.
     */
    std::string assume(SessionId sid, const std::vector<int> &lits);

    /**
     * Solve under the staged assumptions, inline on the calling
     * thread. nullopt for an unknown sid. The record's winner field
     * is "session" and its id/name derive from the sid.
     */
    std::optional<InstanceRecord> solve(SessionId sid);

    /**
     * Failed assumptions (DIMACS ints) of the last UNSAT solve —
     * empty when the formula is unsatisfiable regardless of
     * assumptions. nullopt for an unknown sid.
     */
    std::optional<std::vector<int>> core(SessionId sid);

    /** Release the session. False for an unknown sid. */
    bool close(SessionId sid);

    /** Reject further opens ("draining"); live sessions keep
     *  serving until closed. */
    void drain();

    bool draining() const;

    /** Currently open sessions. */
    std::size_t active() const;

    const SessionManagerOptions &options() const { return opts_; }

  private:
    struct Entry
    {
        std::string tenant;
        std::unique_ptr<core::Session> session;
        sat::LitVec pending_assumptions;
        std::mutex mutex; ///< serializes verbs on this session
    };

    std::shared_ptr<Entry> find(SessionId sid) const;
    void closeLocked(SessionId sid);

    SessionManagerOptions opts_;

    mutable std::mutex mutex_;
    bool draining_ = false;
    SessionId next_id_ = 1;
    std::map<SessionId, std::shared_ptr<Entry>> sessions_;
    std::map<std::string, std::size_t> per_tenant_;

    // Resolved handles (null without a registry).
    Counter *m_opened_ = nullptr;
    Counter *m_closed_ = nullptr;
    Counter *m_rejected_ = nullptr;
    Counter *m_solves_ = nullptr;
    Counter *m_clauses_ = nullptr;
    Gauge *m_active_ = nullptr;
};

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_SESSION_MANAGER_H
