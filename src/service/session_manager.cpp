#include "service/session_manager.h"

#include <charconv>

#include "util/timer.h"

namespace hyqsat::service {

namespace {

/**
 * Parse DIMACS clause text: `c` comments and the `p cnf` header are
 * skipped, every other whitespace token is a literal, 0 ends a
 * clause. Unlike sat::parseDimacs this accepts headerless bodies —
 * incremental ADDs don't know their final variable count.
 * @return "" and fill @p clauses, or a diagnostic.
 */
std::string
parseClauses(const std::string &text,
             std::vector<sat::LitVec> &clauses)
{
    sat::LitVec current;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        std::size_t i = 0;
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t' || line[i] == '\r'))
            ++i;
        if (i >= line.size() || line[i] == 'c' || line[i] == 'p')
            continue;
        while (i < line.size()) {
            while (i < line.size() &&
                   (line[i] == ' ' || line[i] == '\t' ||
                    line[i] == '\r'))
                ++i;
            std::size_t end = i;
            while (end < line.size() && line[end] != ' ' &&
                   line[end] != '\t' && line[end] != '\r')
                ++end;
            if (end == i)
                break;
            int lit = 0;
            const auto res = std::from_chars(
                line.data() + i, line.data() + end, lit);
            if (res.ec != std::errc() ||
                res.ptr != line.data() + end) {
                return "bad literal: " +
                       std::string(line.substr(i, end - i));
            }
            if (lit > sat::kMaxDimacsVar || lit < -sat::kMaxDimacsVar) {
                return "literal out of range: " +
                       std::string(line.substr(i, end - i));
            }
            i = end;
            if (lit == 0) {
                clauses.push_back(current);
                current.clear();
                continue;
            }
            const int v = (lit > 0 ? lit : -lit) - 1;
            current.push_back(sat::mkLit(v, lit < 0));
        }
    }
    if (!current.empty())
        return "unterminated clause (missing 0)";
    return "";
}

} // namespace

SessionManager::SessionManager(SessionManagerOptions opts)
    : opts_(std::move(opts))
{
    // Sessions keep their own registries; the manager is the single
    // writer of the service-level session.* keys (no double count
    // when a closing session merges its internals).
    opts_.hybrid.metrics = nullptr;
    if (opts_.metrics) {
        m_opened_ = opts_.metrics->counter("session.opened");
        m_closed_ = opts_.metrics->counter("session.closed");
        m_rejected_ = opts_.metrics->counter("session.rejected");
        m_solves_ = opts_.metrics->counter("session.solves");
        m_clauses_ = opts_.metrics->counter("session.clauses");
        m_active_ = opts_.metrics->gauge("session.active");
    }
}

SessionManager::~SessionManager()
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (!sessions_.empty())
        closeLocked(sessions_.begin()->first);
}

void
SessionManager::closeLocked(SessionId sid)
{
    const auto it = sessions_.find(sid);
    if (it == sessions_.end())
        return;
    const auto tenant_it = per_tenant_.find(it->second->tenant);
    if (tenant_it != per_tenant_.end() && tenant_it->second > 0)
        --tenant_it->second;
    sessions_.erase(it);
    if (m_closed_)
        m_closed_->add();
    if (m_active_)
        m_active_->set(static_cast<double>(sessions_.size()));
}

OpenResult
SessionManager::open(const std::string &tenant,
                     const core::KnobOverrides &overrides)
{
    OpenResult out;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto reject = [&](const char *why) {
        out.reject_reason = why;
        if (m_rejected_)
            m_rejected_->add();
        return out;
    };
    if (draining_)
        return reject("draining");
    if (opts_.max_sessions != 0 &&
        sessions_.size() >= opts_.max_sessions)
        return reject("sessions_full");
    if (opts_.max_per_tenant != 0 &&
        per_tenant_[tenant] >= opts_.max_per_tenant)
        return reject("tenant_sessions_full");

    core::HybridConfig config = opts_.hybrid;
    core::applyOverrides(overrides, config);

    auto entry = std::make_shared<Entry>();
    entry->tenant = tenant;
    entry->session = std::make_unique<core::Session>(config);
    const SessionId sid = next_id_++;
    sessions_.emplace(sid, std::move(entry));
    ++per_tenant_[tenant];
    if (m_opened_)
        m_opened_->add();
    if (m_active_)
        m_active_->set(static_cast<double>(sessions_.size()));
    out.accepted = true;
    out.id = sid;
    return out;
}

std::shared_ptr<SessionManager::Entry>
SessionManager::find(SessionId sid) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(sid);
    return it == sessions_.end() ? nullptr : it->second;
}

std::string
SessionManager::add(SessionId sid, const std::string &dimacs)
{
    const std::shared_ptr<Entry> entry = find(sid);
    if (!entry)
        return "unknown session";
    std::vector<sat::LitVec> clauses;
    const std::string err = parseClauses(dimacs, clauses);
    if (!err.empty())
        return err;
    for (const sat::LitVec &c : clauses) {
        if (c.size() > 3)
            return "clause too long (3-SAT required)";
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    for (sat::LitVec &c : clauses)
        entry->session->addClause(std::move(c));
    if (m_clauses_)
        m_clauses_->add(clauses.size());
    return "";
}

std::string
SessionManager::assume(SessionId sid, const std::vector<int> &lits)
{
    const std::shared_ptr<Entry> entry = find(sid);
    if (!entry)
        return "unknown session";
    for (const int lit : lits) {
        if (lit > sat::kMaxDimacsVar || lit < -sat::kMaxDimacsVar)
            return "literal out of range: " + std::to_string(lit);
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->pending_assumptions.clear();
    for (const int lit : lits) {
        const int v = (lit > 0 ? lit : -lit) - 1;
        entry->pending_assumptions.push_back(
            sat::mkLit(v, lit < 0));
    }
    return "";
}

std::optional<InstanceRecord>
SessionManager::solve(SessionId sid)
{
    const std::shared_ptr<Entry> entry = find(sid);
    if (!entry)
        return std::nullopt;
    std::lock_guard<std::mutex> lock(entry->mutex);
    Timer timer;
    const sat::LitVec assumptions =
        std::move(entry->pending_assumptions);
    entry->pending_assumptions.clear();
    const core::HybridResult r = entry->session->solve(assumptions);

    InstanceRecord rec;
    rec.name = "session-" + std::to_string(sid);
    rec.status = r.status.isTrue()    ? "SAT"
                 : r.status.isFalse() ? "UNSAT"
                                      : "UNKNOWN";
    rec.winner = "session";
    rec.simplify = simplify::strengthName(
        entry->session->config().simplify_strength);
    rec.wall_s = timer.seconds();
    rec.vars = entry->session->formula().numVars();
    rec.clauses = entry->session->formula().numClauses();
    rec.iterations = r.stats.iterations;
    rec.conflicts = r.stats.conflicts;
    if (m_solves_)
        m_solves_->add();
    return rec;
}

std::optional<std::vector<int>>
SessionManager::core(SessionId sid)
{
    const std::shared_ptr<Entry> entry = find(sid);
    if (!entry)
        return std::nullopt;
    std::lock_guard<std::mutex> lock(entry->mutex);
    std::vector<int> out;
    // failedAssumptions() is the implied clause over *negated*
    // assumptions; clients want the assumptions that failed.
    for (const sat::Lit c : entry->session->failedAssumptions())
        out.push_back(sat::toDimacs(~c));
    return out;
}

bool
SessionManager::close(SessionId sid)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.find(sid) == sessions_.end())
        return false;
    closeLocked(sid);
    return true;
}

void
SessionManager::drain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
}

bool
SessionManager::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

std::size_t
SessionManager::active() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

} // namespace hyqsat::service
