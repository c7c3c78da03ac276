#include "sat/dimacs.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace hyqsat::sat {

namespace {

/** Whitespace accepted between DIMACS tokens (istream semantics). */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
}

/**
 * Parse one signed integer token starting at @p pos; advances @p pos
 * past it. Mirrors `istream >> long long`: optional +/- sign, at
 * least one digit, failure on anything else (including overflow).
 */
bool
parseNumber(std::string_view line, std::size_t &pos, long long &out)
{
    const char *begin = line.data() + pos;
    const char *end = line.data() + line.size();
    if (begin != end && *begin == '+')
        ++begin; // from_chars rejects '+' but istream accepts it
    const auto res = std::from_chars(begin, end, out);
    if (res.ec != std::errc())
        return false;
    pos = static_cast<std::size_t>(res.ptr - line.data());
    return true;
}

} // namespace

std::optional<Cnf>
parseDimacs(std::string_view text)
{
    Cnf cnf;
    bool saw_header = false;
    int declared_vars = 0;
    int declared_clauses = 0;

    LitVec current;
    std::size_t line_start = 0;
    while (line_start <= text.size()) {
        std::size_t nl = text.find('\n', line_start);
        if (nl == std::string_view::npos) {
            if (line_start == text.size())
                break; // no trailing newline and nothing left
            nl = text.size();
        }
        const std::string_view line =
            text.substr(line_start, nl - line_start);
        line_start = nl + 1;

        if (line.empty())
            continue;
        if (line[0] == 'c')
            continue;
        if (line[0] == '%') {
            // SATLIB files end with a "%\n0" trailer; stop here.
            break;
        }
        if (line[0] == 'p') {
            std::istringstream hdr{std::string(line)};
            std::string p, fmt;
            hdr >> p >> fmt >> declared_vars >> declared_clauses;
            if (fmt != "cnf" || hdr.fail() || declared_vars < 0 ||
                declared_vars > kMaxDimacsVar ||
                declared_clauses < 0) {
                warn("malformed DIMACS header: %.*s",
                     static_cast<int>(line.size()), line.data());
                return std::nullopt;
            }
            saw_header = true;
            cnf.ensureVars(declared_vars);
            continue;
        }
        std::size_t pos = 0;
        for (;;) {
            while (pos < line.size() && isSpace(line[pos]))
                ++pos;
            if (pos >= line.size())
                break; // clean end of line
            long long v;
            if (!parseNumber(line, pos, v)) {
                // Non-numeric token outside a comment line.
                warn("malformed DIMACS clause line: %.*s",
                     static_cast<int>(line.size()), line.data());
                return std::nullopt;
            }
            if (v == 0) {
                cnf.addClause(current);
                current.clear();
            } else {
                if (v > kMaxDimacsVar || v < -kMaxDimacsVar) {
                    warn("DIMACS literal out of range: %lld", v);
                    return std::nullopt;
                }
                current.push_back(fromDimacs(static_cast<int>(v)));
            }
        }
    }
    if (!current.empty()) {
        // A final clause without its 0 terminator is accepted.
        cnf.addClause(current);
    }
    if (!saw_header) {
        warn("DIMACS input has no 'p cnf' header");
        return std::nullopt;
    }
    if (cnf.numClauses() != declared_clauses) {
        warn("DIMACS header declares %d clauses but %d were read",
             declared_clauses, cnf.numClauses());
    }
    return cnf;
}

std::optional<Cnf>
parseDimacs(std::istream &in)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = std::move(buf).str();
    return parseDimacs(std::string_view(text));
}

std::optional<Cnf>
parseDimacsString(const std::string &text)
{
    return parseDimacs(std::string_view(text));
}

std::optional<Cnf>
parseDimacsFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    return parseDimacs(in);
}

std::string
toDimacsString(const Cnf &cnf)
{
    std::ostringstream out;
    if (!cnf.name().empty())
        out << "c " << cnf.name() << "\n";
    out << "p cnf " << cnf.numVars() << " " << cnf.numClauses() << "\n";
    for (const auto &clause : cnf.clauses()) {
        for (Lit p : clause)
            out << toDimacs(p) << " ";
        out << "0\n";
    }
    return out.str();
}

void
writeDimacsFile(const Cnf &cnf, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open file for writing: %s", path.c_str());
    out << toDimacsString(cnf);
    if (!out)
        fatal("I/O error while writing: %s", path.c_str());
}

} // namespace hyqsat::sat
