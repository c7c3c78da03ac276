#include "service/protocol.h"

#include <cctype>
#include <charconv>

#include "util/metrics.h"

namespace hyqsat::service {

namespace {

bool
parseUint(std::string_view tok, std::uint64_t &out)
{
    const auto res =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return res.ec == std::errc() &&
           res.ptr == tok.data() + tok.size();
}

bool
parseInt(std::string_view tok, int &out)
{
    const auto res =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return res.ec == std::errc() &&
           res.ptr == tok.data() + tok.size();
}

/**
 * `key=<value>` for every knob-table row SUBMIT (or, with @p open,
 * OPEN) takes, in table order; the protocol writes value
 * placeholders in lower case.
 */
std::vector<std::string>
overrideKeys(bool open)
{
    std::vector<std::string> keys;
    for (const core::Knob &knob : core::knobs()) {
        if (!knob.key || (open && !knob.open))
            continue;
        std::string syntax = knob.syntax;
        for (char &c : syntax)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        keys.push_back(std::string(knob.key) + "=<" + syntax + ">");
    }
    return keys;
}

/** "usage: <verb and fields> [key=<value>]..." */
std::string
usageWithKeys(const char *fields, const std::vector<std::string> &keys)
{
    std::string out = std::string("usage: ") + fields;
    for (const std::string &key : keys)
        out += " [" + key + "]";
    return out;
}

/**
 * Parse SUBMIT/OPEN's trailing `key=value` tokens (from @p first on)
 * into req.overrides; on a bad one set req.error to the @p keys
 * expected and return false.
 */
bool
parseOverrides(const std::vector<std::string_view> &tokens,
               std::size_t first, bool open,
               const std::vector<std::string> &keys, Request &req)
{
    for (std::size_t i = first; i < tokens.size(); ++i) {
        auto parsed = core::parseOverride(tokens[i], open);
        if (!parsed) {
            req.error = "bad option (expected ";
            for (std::size_t k = 0; k < keys.size(); ++k) {
                if (k > 0)
                    req.error += k + 1 < keys.size() ? ", " : " or ";
                req.error += keys[k];
            }
            req.error += "): " + std::string(tokens[i]);
            return false;
        }
        req.overrides.push_back(std::move(*parsed));
    }
    return true;
}

} // namespace

std::vector<std::string_view>
splitTokens(std::string_view line)
{
    std::vector<std::string_view> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t' ||
                line[pos] == '\r'))
            ++pos;
        std::size_t end = pos;
        while (end < line.size() && line[end] != ' ' &&
               line[end] != '\t' && line[end] != '\r')
            ++end;
        if (end > pos)
            tokens.push_back(line.substr(pos, end - pos));
        pos = end;
    }
    return tokens;
}

Request
parseRequest(std::string_view line)
{
    Request req;
    const auto tokens = splitTokens(line);
    if (tokens.empty()) {
        req.error = "empty request";
        return req;
    }
    const std::string_view verb = tokens[0];
    if (verb == "SUBMIT") {
        // SUBMIT <tenant> <priority> <name> [key=value...] — all
        // single tokens; the optional extras are key=value overrides
        // in any order (anything else stays Invalid).
        const std::vector<std::string> keys = overrideKeys(false);
        if (tokens.size() < 4 || tokens.size() > 4 + keys.size()) {
            req.error =
                usageWithKeys("SUBMIT <tenant> <priority> <name>", keys);
            return req;
        }
        if (!parseInt(tokens[2], req.priority)) {
            req.error = "bad priority";
            return req;
        }
        if (!parseOverrides(tokens, 4, false, keys, req))
            return req;
        req.verb = Verb::Submit;
        req.tenant = std::string(tokens[1]);
        req.name = std::string(tokens[3]);
        return req;
    }
    if (verb == "WAIT" || verb == "STATUS") {
        if (tokens.size() != 2 || !parseUint(tokens[1], req.id)) {
            req.error = "usage: " + std::string(verb) + " <id>";
            return req;
        }
        req.verb = verb == "WAIT" ? Verb::Wait : Verb::Status;
        return req;
    }
    if (verb == "METRICS") {
        req.verb = Verb::Metrics;
        return req;
    }
    if (verb == "PING") {
        req.verb = Verb::Ping;
        return req;
    }
    if (verb == "SHUTDOWN") {
        if (tokens.size() > 2 ||
            (tokens.size() == 2 && tokens[1] != "finish" &&
             tokens[1] != "cancel")) {
            req.error = "usage: SHUTDOWN [finish|cancel]";
            return req;
        }
        req.verb = Verb::Shutdown;
        req.drain_policy = (tokens.size() == 2 && tokens[1] == "cancel")
                               ? DrainPolicy::CancelPending
                               : DrainPolicy::FinishQueued;
        return req;
    }
    if (verb == "QUIT") {
        req.verb = Verb::Quit;
        return req;
    }
    if (verb == "OPEN") {
        // OPEN <tenant> [key=value...] — the subset of SUBMIT's
        // override keys the knob table marks for OPEN.
        const std::vector<std::string> keys = overrideKeys(true);
        if (tokens.size() < 2 || tokens.size() > 2 + keys.size()) {
            req.error = usageWithKeys("OPEN <tenant>", keys);
            return req;
        }
        if (!parseOverrides(tokens, 2, true, keys, req))
            return req;
        req.verb = Verb::Open;
        req.tenant = std::string(tokens[1]);
        return req;
    }
    if (verb == "ADD" || verb == "SOLVE" || verb == "CORE" ||
        verb == "CLOSE") {
        if (tokens.size() != 2 || !parseUint(tokens[1], req.id)) {
            req.error = "usage: " + std::string(verb) + " <sid>";
            return req;
        }
        req.verb = verb == "ADD"     ? Verb::Add
                   : verb == "SOLVE" ? Verb::Solve
                   : verb == "CORE"  ? Verb::Core
                                     : Verb::Close;
        return req;
    }
    if (verb == "ASSUME") {
        if (tokens.size() < 2 || !parseUint(tokens[1], req.id)) {
            req.error = "usage: ASSUME <sid> <lit...>";
            return req;
        }
        for (std::size_t i = 2; i < tokens.size(); ++i) {
            int lit = 0;
            if (!parseInt(tokens[i], lit) || lit == 0) {
                req.error =
                    "bad literal (nonzero DIMACS int expected): " +
                    std::string(tokens[i]);
                return req;
            }
            req.lits.push_back(lit);
        }
        req.verb = Verb::Assume;
        return req;
    }
    req.error = "unknown verb: " + std::string(verb);
    return req;
}

std::string
formatSubmission(const Submission &sub)
{
    if (sub.accepted)
        return "OK " + std::to_string(sub.id);
    return "REJECTED " + sub.reject_reason;
}

std::string
formatResult(JobId id, const InstanceRecord &rec)
{
    std::string out = "RESULT " + std::to_string(id) + ' ' +
                      rec.status + ' ' + jsonNumber(rec.wall_s) +
                      ' ' + std::to_string(rec.vars) + ' ' +
                      std::to_string(rec.clauses) + ' ' +
                      std::to_string(rec.conflicts) + ' ' +
                      (rec.winner.empty() ? "-" : rec.winner);
    return out;
}

std::string
formatState(JobId id, JobState state, const std::string &status)
{
    std::string out = "STATE " + std::to_string(id) + ' ';
    switch (state) {
    case JobState::Queued: out += "QUEUED"; break;
    case JobState::Running: out += "RUNNING"; break;
    case JobState::Done: out += "DONE"; break;
    }
    if (state == JobState::Done && !status.empty())
        out += ' ' + status;
    return out;
}

std::optional<std::pair<JobId, InstanceRecord>>
parseResult(std::string_view line)
{
    const auto tokens = splitTokens(line);
    if (tokens.size() != 8 || tokens[0] != "RESULT")
        return std::nullopt;
    JobId id = 0;
    if (!parseUint(tokens[1], id))
        return std::nullopt;
    InstanceRecord rec;
    rec.status = std::string(tokens[2]);
    rec.wall_s = std::atof(std::string(tokens[3]).c_str());
    int vars = 0, clauses = 0;
    std::uint64_t conflicts = 0;
    if (!parseInt(tokens[4], vars) || !parseInt(tokens[5], clauses) ||
        !parseUint(tokens[6], conflicts))
        return std::nullopt;
    rec.vars = vars;
    rec.clauses = clauses;
    rec.conflicts = conflicts;
    if (tokens[7] != "-")
        rec.winner = std::string(tokens[7]);
    return std::make_pair(id, rec);
}

std::string
formatCore(JobId sid, const std::vector<int> &lits)
{
    std::string out = "CORE " + std::to_string(sid);
    for (const int lit : lits)
        out += ' ' + std::to_string(lit);
    return out;
}

std::optional<std::pair<JobId, std::vector<int>>>
parseCore(std::string_view line)
{
    const auto tokens = splitTokens(line);
    if (tokens.size() < 2 || tokens[0] != "CORE")
        return std::nullopt;
    JobId sid = 0;
    if (!parseUint(tokens[1], sid))
        return std::nullopt;
    std::vector<int> lits;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
        int lit = 0;
        if (!parseInt(tokens[i], lit) || lit == 0)
            return std::nullopt;
        lits.push_back(lit);
    }
    return std::make_pair(sid, lits);
}

} // namespace hyqsat::service
