#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "service/batch_runner.h"
#include "util/metrics.h"

namespace hyqsat::service {
namespace {

namespace fs = std::filesystem;

/** Temp directory wiped on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("hyqsat_batch_test_" +
                std::to_string(::getpid() +
                               reinterpret_cast<std::uintptr_t>(this)));
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string
    write(const std::string &name, const std::string &content) const
    {
        const auto p = path / name;
        std::ofstream out(p);
        out << content;
        return p.string();
    }
};

const char *kSatCnf = "c tiny satisfiable\n"
                      "p cnf 3 2\n"
                      "1 2 3 0\n"
                      "-1 2 0\n";

/** All 8 sign patterns over 3 variables: unsatisfiable. */
std::string
unsatCnf()
{
    std::string s = "p cnf 3 8\n";
    for (int mask = 0; mask < 8; ++mask) {
        for (int v = 0; v < 3; ++v)
            s += std::to_string((mask >> v) & 1 ? -(v + 1) : v + 1) +
                 " ";
        s += "0\n";
    }
    return s;
}

SchedulerOptions
smallOptions()
{
    SchedulerOptions opts;
    opts.portfolio.base.annealer.noise = anneal::NoiseModel::noiseFree();
    opts.portfolio.base.annealer.greedy_finish = true;
    opts.portfolio.num_workers = 2;
    opts.workers = 2;
    return opts;
}

TEST(BatchRunner, MixedBatchRecordsInInputOrder)
{
    TempDir dir;
    const auto sat_path = dir.write("easy_sat.cnf", kSatCnf);
    const auto unsat_path = dir.write("tiny_unsat.cnf", unsatCnf());
    const auto broken_path =
        dir.write("broken.cnf", "p cnf not-a-number\n1 2 0\n");

    BatchRunner runner(smallOptions());
    const auto report =
        runner.run({sat_path, unsat_path, broken_path});

    ASSERT_EQ(report.records.size(), 3u);
    EXPECT_EQ(report.records[0].name, "easy_sat");
    EXPECT_EQ(report.records[0].status, "SAT");
    EXPECT_FALSE(report.records[0].winner.empty());
    EXPECT_EQ(report.records[0].vars, 3);
    EXPECT_EQ(report.records[0].clauses, 2);

    EXPECT_EQ(report.records[1].name, "tiny_unsat");
    EXPECT_EQ(report.records[1].status, "UNSAT");

    EXPECT_EQ(report.records[2].name, "broken");
    EXPECT_EQ(report.records[2].status, "PARSE_ERROR");

    EXPECT_EQ(report.sat, 1);
    EXPECT_EQ(report.unsat, 1);
    EXPECT_EQ(report.errors, 1);
    EXPECT_EQ(report.unknown, 0);
    EXPECT_FALSE(report.allDecided()) << "a parse error is not decided";
}

TEST(BatchRunner, MissingFileIsAParseErrorRow)
{
    // A path that cannot be opened fails its own row only: the rest
    // of the batch still solves and reports in input order.
    TempDir dir;
    const auto missing = (dir.path / "absent.cnf").string();
    const auto sat_path = dir.write("easy_sat.cnf", kSatCnf);

    BatchRunner runner(smallOptions());
    const auto report = runner.run({missing, sat_path});

    ASSERT_EQ(report.records.size(), 2u);
    EXPECT_EQ(report.records[0].name, "absent");
    EXPECT_EQ(report.records[0].status, "PARSE_ERROR");
    EXPECT_EQ(report.records[1].name, "easy_sat");
    EXPECT_EQ(report.records[1].status, "SAT");
    EXPECT_EQ(report.errors, 1);
    EXPECT_EQ(report.sat, 1);
}

TEST(BatchRunner, AllDecidedOnCleanBatch)
{
    TempDir dir;
    std::vector<std::string> paths;
    for (int i = 0; i < 4; ++i)
        paths.push_back(
            dir.write("inst" + std::to_string(i) + ".cnf", kSatCnf));
    BatchRunner runner(smallOptions());
    const auto report = runner.run(paths);
    EXPECT_TRUE(report.allDecided());
    EXPECT_EQ(report.sat, 4);
}

TEST(BatchRunner, ExternalStopLeavesRestUnknown)
{
    StopToken stop;
    stop.requestStop(); // cancelled before any instance is picked up

    TempDir dir;
    const auto p = dir.write("inst.cnf", kSatCnf);
    auto opts = smallOptions();
    opts.external_stop = &stop;
    BatchRunner runner(opts);
    const auto report = runner.run({p, p, p});
    ASSERT_EQ(report.records.size(), 3u);
    for (const auto &rec : report.records)
        EXPECT_EQ(rec.status, "UNKNOWN");
    EXPECT_FALSE(report.allDecided());
}

TEST(BatchRunner, PreTrippedStopNeverRunsAJobAcrossRepeats)
{
    // The scheduler checks the external token synchronously when it
    // unparks its workers and again at every job pickup, so a
    // pre-tripped token cancels the whole batch before any job runs.
    // Repeated because a missed check would show only in some runs.
    StopToken stop;
    stop.requestStop();
    TempDir dir;
    const auto p = dir.write("inst.cnf", kSatCnf);
    auto opts = smallOptions();
    opts.external_stop = &stop;
    for (int rep = 0; rep < 200; ++rep) {
        BatchRunner runner(opts);
        const auto report = runner.run({p, p, p});
        ASSERT_EQ(report.records.size(), 3u);
        for (const auto &rec : report.records)
            ASSERT_EQ(rec.status, "UNKNOWN") << "repeat " << rep;
    }
}

TEST(BatchRunner, MemoryBudgetSkipsOversizedInstances)
{
    // ~40k clauses over 10k vars: the footprint estimate exceeds a
    // 1 MB budget, so the instance must be admitted-out, not solved.
    std::string big = "p cnf 10000 40000\n";
    for (int i = 0; i < 40000; ++i) {
        const int a = (i % 10000) + 1, b = ((i + 17) % 10000) + 1,
                  c = ((i + 4391) % 10000) + 1;
        big += std::to_string(a) + " " + std::to_string(-b) + " " +
               std::to_string(c) + " 0\n";
    }
    TempDir dir;
    const auto p = dir.write("big.cnf", big);

    auto opts = smallOptions();
    opts.memory_budget_mb = 1;
    BatchRunner runner(opts);
    const auto report = runner.run({p});
    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_EQ(report.records[0].status, "SKIPPED");
    EXPECT_EQ(report.skipped, 1);
}

TEST(BatchRunner, EstimateMemoryScalesWithWorkers)
{
    sat::Cnf cnf(100);
    for (int i = 0; i < 97; ++i)
        cnf.addClause({sat::mkLit(i % 100), sat::mkLit((i + 3) % 100),
                       sat::mkLit((i + 7) % 100, true)});
    EXPECT_GE(estimateMemoryMb(cnf, 8), estimateMemoryMb(cnf, 1));
}

TEST(BatchRunner, CollectCnfFilesFiltersAndSorts)
{
    TempDir dir;
    dir.write("b.cnf", kSatCnf);
    dir.write("a.dimacs", kSatCnf);
    dir.write("notes.txt", "not a formula");
    const auto files = collectCnfFiles(dir.path.string());
    ASSERT_EQ(files.size(), 2u);
    EXPECT_NE(files[0].find("a.dimacs"), std::string::npos);
    EXPECT_NE(files[1].find("b.cnf"), std::string::npos);
}

TEST(BatchRunner, ReadManifestSkipsCommentsAndBlanks)
{
    std::istringstream in("# header\n"
                          "  one.cnf  \n"
                          "\n"
                          "\ttwo.cnf\r\n"
                          "   # indented comment\n"
                          "three.cnf\n");
    const auto paths = readManifest(in);
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0], "one.cnf");
    EXPECT_EQ(paths[1], "two.cnf");
    EXPECT_EQ(paths[2], "three.cnf");
}

TEST(BatchRunner, JsonAndCsvReportsWellFormed)
{
    TempDir dir;
    const auto sat_path = dir.write("easy.cnf", kSatCnf);
    const auto broken_path = dir.write("bad.cnf", "garbage\n");
    BatchRunner runner(smallOptions());
    const auto report = runner.run({sat_path, broken_path});

    std::ostringstream json;
    writeJsonReport(report, json);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"summary\""), std::string::npos);
    EXPECT_NE(j.find("\"status\": \"SAT\""), std::string::npos);
    EXPECT_NE(j.find("\"status\": \"PARSE_ERROR\""), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));

    std::ostringstream csv;
    writeCsvReport(report, csv);
    const std::string c = csv.str();
    // Header + one row per instance.
    EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), 3);
    EXPECT_NE(c.find("name,path,status"), std::string::npos);
    EXPECT_NE(c.find("easy,"), std::string::npos);
}

TEST(BatchRunner, JsonReportGuardsNonFiniteDoubles)
{
    // A record with poisoned timing fields (NaN / ±Inf) must still
    // serialize as parseable JSON: jsonNumber maps them to 0.
    BatchReport report;
    InstanceRecord rec;
    rec.name = "poisoned";
    rec.path = "/tmp/poisoned.cnf";
    rec.status = "SAT";
    rec.wall_s = std::numeric_limits<double>::quiet_NaN();
    rec.frontend_s = std::numeric_limits<double>::infinity();
    rec.cdcl_s = -std::numeric_limits<double>::infinity();
    rec.metrics.emplace_back(
        "bad.gauge", std::numeric_limits<double>::quiet_NaN());
    report.records.push_back(rec);
    report.wall_s = std::numeric_limits<double>::quiet_NaN();

    std::ostringstream json;
    writeJsonReport(report, json);
    const std::string j = json.str();
    EXPECT_EQ(j.find("nan"), std::string::npos);
    EXPECT_EQ(j.find("inf"), std::string::npos);
    EXPECT_NE(j.find("\"wall_s\": 0"), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));

    std::ostringstream csv;
    writeCsvReport(report, csv);
    EXPECT_EQ(csv.str().find("nan"), std::string::npos);
    EXPECT_EQ(csv.str().find("inf"), std::string::npos);
}

TEST(BatchRunner, MetricsRegistryCollectsWholeBatchTotals)
{
    TempDir dir;
    const auto sat_path = dir.write("easy.cnf", kSatCnf);
    const auto unsat_path = dir.write("hard.cnf", unsatCnf());

    MetricsRegistry registry;
    auto opts = smallOptions();
    opts.metrics = &registry;
    BatchRunner runner(opts);
    const auto report = runner.run({sat_path, unsat_path});
    ASSERT_EQ(report.records.size(), 2u);

    // One portfolio race per instance, merged under the lock.
    EXPECT_EQ(registry.counter("portfolio.races")->value(), 2u);
    EXPECT_GT(registry.counter("solver.decisions")->value(), 0u);

    // Per-instance snapshots are embedded in the records and carry
    // the per-record totals the JSON report exposes.
    for (const auto &rec : report.records) {
        EXPECT_FALSE(rec.metrics.empty()) << rec.name;
        std::ostringstream json;
        writeJsonReport(report, json);
        EXPECT_NE(json.str().find("\"metrics\": {"),
                  std::string::npos);
    }
    // The UNSAT instance needed conflicts, so propagations landed in
    // its record from the instance registry.
    EXPECT_GT(report.records[1].propagations, 0u);
}

} // namespace
} // namespace hyqsat::service
