/**
 * @file
 * DIMACS CNF reader and writer, so the library interoperates with
 * standard SAT benchmark files (SATLIB, SAT competition).
 *
 * The in-memory `string_view` overload is the single parsing core:
 * the stream, string and file entry points all delegate to it. This
 * is what lets the solver service accept formulas straight off a
 * socket without round-tripping through temp files.
 */

#ifndef HYQSAT_SAT_DIMACS_H
#define HYQSAT_SAT_DIMACS_H

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "sat/cnf.h"

namespace hyqsat::sat {

/**
 * Parse a DIMACS CNF held in memory (zero-copy; no stream, no temp
 * file). Accepts comment lines ('c ...'), one 'p cnf <vars>
 * <clauses>' header, and 0-terminated clauses (which may span
 * lines). A '%' line ends the formula (SATLIB trailer). Tolerates a
 * clause count that disagrees with the header (warns).
 *
 * @return the formula, or std::nullopt on malformed input.
 */
std::optional<Cnf> parseDimacs(std::string_view text);

/** Parse a DIMACS CNF stream (slurps, then parses in memory). */
std::optional<Cnf> parseDimacs(std::istream &in);

/** Parse a DIMACS CNF from a string. */
std::optional<Cnf> parseDimacsString(const std::string &text);

/** Parse a DIMACS CNF file; nullopt if it cannot be opened, too. */
std::optional<Cnf> parseDimacsFile(const std::string &path);

/** Serialize @p cnf in DIMACS format. */
std::string toDimacsString(const Cnf &cnf);

/** Write @p cnf to @p path; fatal() on I/O failure. */
void writeDimacsFile(const Cnf &cnf, const std::string &path);

} // namespace hyqsat::sat

#endif // HYQSAT_SAT_DIMACS_H
