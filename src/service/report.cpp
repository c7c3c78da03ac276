#include "service/report.h"

#include <algorithm>
#include <filesystem>
#include <istream>
#include <ostream>

#include "sat/cnf.h"
#include "util/metrics.h"

namespace hyqsat::service {

namespace fs = std::filesystem;

void
tallyRecord(BatchReport &report, const InstanceRecord &rec)
{
    if (rec.status == "SAT")
        ++report.sat;
    else if (rec.status == "UNSAT")
        ++report.unsat;
    else if (rec.status == "TIMEOUT")
        ++report.timeouts;
    else if (rec.status == "SKIPPED")
        ++report.skipped;
    else if (rec.status == "PARSE_ERROR")
        ++report.errors;
    else
        ++report.unknown; // UNKNOWN and CANCELLED alike
}

std::vector<std::string>
collectCnfFiles(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".cnf" || ext == ".dimacs")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

std::vector<std::string>
readManifest(std::istream &in)
{
    std::vector<std::string> paths;
    std::string line;
    while (std::getline(in, line)) {
        // Trim whitespace; skip blanks and '#' comments.
        const auto begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos || line[begin] == '#')
            continue;
        const auto end = line.find_last_not_of(" \t\r");
        paths.push_back(line.substr(begin, end - begin + 1));
    }
    return paths;
}

std::size_t
estimateMemoryMb(const sat::Cnf &cnf, int num_workers)
{
    // Footprint model: every clause costs its literals (4 B each)
    // plus an arena header, doubled for learnt growth; every
    // variable costs watch lists, trail, heap and scores (~128 B).
    // Each portfolio worker holds an independent copy.
    std::size_t lits = 0;
    for (int i = 0; i < cnf.numClauses(); ++i)
        lits += cnf.clause(i).size();
    const std::size_t per_worker =
        lits * 2 * (sizeof(std::uint32_t) + 12) +
        static_cast<std::size_t>(cnf.numVars()) * 128;
    const std::size_t total =
        per_worker * static_cast<std::size_t>(std::max(num_workers, 1));
    return total / (1024 * 1024) + 1;
}

void
writeJsonReport(const BatchReport &report, std::ostream &out)
{
    // Every double is routed through jsonNumber(): timing fields can
    // be NaN/Inf after clock trouble or 0/0 derivations, and a bare
    // "nan" token makes the whole report unparseable downstream.
    out << "{\n  \"summary\": {"
        << "\"instances\": " << report.records.size()
        << ", \"sat\": " << report.sat
        << ", \"unsat\": " << report.unsat
        << ", \"unknown\": " << report.unknown
        << ", \"timeouts\": " << report.timeouts
        << ", \"skipped\": " << report.skipped
        << ", \"errors\": " << report.errors
        << ", \"wall_s\": " << jsonNumber(report.wall_s)
        << "},\n  \"instances\": [\n";
    for (std::size_t i = 0; i < report.records.size(); ++i) {
        const InstanceRecord &r = report.records[i];
        out << "    {\"name\": \"" << jsonEscape(r.name)
            << "\", \"path\": \"" << jsonEscape(r.path)
            << "\", \"status\": \"" << jsonEscape(r.status)
            << "\", \"winner\": \"" << jsonEscape(r.winner)
            << "\", \"simplify\": \"" << jsonEscape(r.simplify)
            << "\", \"topology\": \"" << jsonEscape(r.topology)
            << "\", \"reads_groups\": " << r.reads_groups
            << ", \"wall_s\": " << jsonNumber(r.wall_s)
            << ", \"vars\": " << r.vars
            << ", \"clauses\": " << r.clauses
            << ", \"iterations\": " << r.iterations
            << ", \"conflicts\": " << r.conflicts
            << ", \"restarts\": " << r.restarts
            << ", \"propagations\": " << r.propagations
            << ", \"qa_samples\": " << r.qa_samples
            << ", \"time\": {\"frontend_s\": " << jsonNumber(r.frontend_s)
            << ", \"qa_device_s\": " << jsonNumber(r.qa_device_s)
            << ", \"backend_s\": " << jsonNumber(r.backend_s)
            << ", \"cdcl_s\": " << jsonNumber(r.cdcl_s) << "}";
        out << ", \"metrics\": {";
        for (std::size_t k = 0; k < r.metrics.size(); ++k) {
            out << (k ? ", " : "") << '"'
                << jsonEscape(r.metrics[k].first)
                << "\": " << jsonNumber(r.metrics[k].second);
        }
        out << "}}" << (i + 1 < report.records.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}\n";
}

void
writeCsvReport(const BatchReport &report, std::ostream &out)
{
    out << "name,path,status,winner,simplify,topology,"
           "reads_groups,wall_s,vars,clauses,"
           "iterations,conflicts,restarts,propagations,qa_samples,"
           "frontend_s,qa_device_s,backend_s,cdcl_s\n";
    for (const InstanceRecord &r : report.records) {
        out << r.name << ',' << r.path << ',' << r.status << ','
            << r.winner << ',' << r.simplify << ','
            << r.topology << ',' << r.reads_groups << ',' << jsonNumber(r.wall_s) << ','
            << r.vars << ',' << r.clauses << ',' << r.iterations
            << ',' << r.conflicts << ',' << r.restarts << ','
            << r.propagations << ',' << r.qa_samples << ','
            << jsonNumber(r.frontend_s) << ','
            << jsonNumber(r.qa_device_s) << ','
            << jsonNumber(r.backend_s) << ','
            << jsonNumber(r.cdcl_s) << "\n";
    }
}

} // namespace hyqsat::service
