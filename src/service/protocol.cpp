#include "service/protocol.h"

#include <charconv>

#include "simplify/pipeline.h"
#include "topology/topology.h"
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
 * Parse one trailing `key=value` override token of SUBMIT/OPEN.
 * Values are validated here so the scheduler can apply them blindly.
 */
bool
parseOption(std::string_view opt, Request &req)
{
    constexpr std::string_view kSimplify = "simplify=";
    constexpr std::string_view kTopology = "topology=";
    constexpr std::string_view kReadsGroups = "reads_groups=";
    if (opt.rfind(kSimplify, 0) == 0) {
        const auto value = opt.substr(kSimplify.size());
        simplify::Strength strength;
        if (!simplify::parseStrength(std::string(value), strength))
            return false;
        req.simplify = std::string(value);
        return true;
    }
    if (opt.rfind(kTopology, 0) == 0) {
        const auto value = opt.substr(kTopology.size());
        if (!topology::parseKind(value).has_value())
            return false;
        req.topology = std::string(value);
        return true;
    }
    if (opt.rfind(kReadsGroups, 0) == 0) {
        const auto value = opt.substr(kReadsGroups.size());
        int groups = -1;
        if (!parseInt(value, groups) || groups < 0 || groups > 4096)
            return false;
        req.reads_groups = groups;
        return true;
    }
    return false;
}

constexpr const char *kOptionUsage =
    "simplify=<off|light|full>, topology=<chimera|pegasus|zephyr> "
    "or reads_groups=<n>";

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
        if (tokens.size() < 4 || tokens.size() > 7) {
            req.error = "usage: SUBMIT <tenant> <priority> <name> "
                        "[simplify=<off|light|full>] "
                        "[topology=<chimera|pegasus|zephyr>] "
                        "[reads_groups=<n>]";
            return req;
        }
        if (!parseInt(tokens[2], req.priority)) {
            req.error = "bad priority";
            return req;
        }
        for (std::size_t i = 4; i < tokens.size(); ++i) {
            if (!parseOption(tokens[i], req)) {
                req.error = "bad option (expected " +
                            std::string(kOptionUsage) +
                            "): " + std::string(tokens[i]);
                return req;
            }
        }
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
        // OPEN <tenant> [simplify=<level>] — same optional override
        // key SUBMIT takes.
        if (tokens.size() != 2 && tokens.size() != 3) {
            req.error =
                "usage: OPEN <tenant> [simplify=<off|light|full>]";
            return req;
        }
        if (tokens.size() == 3) {
            const std::string_view opt = tokens[2];
            if (opt.rfind("simplify=", 0) != 0 ||
                !parseOption(opt, req)) {
                req.error = "bad option (expected "
                            "simplify=<off|light|full>): " +
                            std::string(opt);
                return req;
            }
        }
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
