/**
 * @file
 * Reproduces Table III: iteration reduction of HyQSAT vs classic
 * CDCL on Chimera grids of growing size (16x16, 24x24, 32x32,
 * 64x64), with a 10% readout bit-flip added to the noise-free
 * simulation (§VI-G), on the AI series plus a 500-variable random
 * 3-SAT family.
 *
 * Protocol notes: the paper's scalability study runs its simulator
 * (dwave-neal) plus bit flips, i.e. samples the *logical* problem -
 * the grid size enters through how many clauses the frontend can
 * embed. The classic baseline is solved once per instance and
 * reused across grids.
 */

#include <cstdio>
#include <cstdlib>

#include "bench/common.h"
#include "gen/random_sat.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyqsat;

namespace {

struct Instance
{
    sat::Cnf cnf;
    double classic_iterations = 0;
};

double
hybridIterations(const sat::Cnf &cnf, int grid, std::uint64_t seed)
{
    auto cfg = bench::noiseFreeConfig(seed);
    cfg.chimera_rows = grid;
    cfg.chimera_cols = grid;
    cfg.annealer.noise.readout_flip_prob = 0.1; // §VI-G bit flipping
    cfg.sampler = "logical"; // logical sampling, like the paper
    cfg.frontend.queue.capacity = cnf.numClauses();
    // Bound the warm-up so the largest (500-variable) rows stay
    // within bench time on a single core.
    cfg.max_warmup = 256;
    core::HybridSolver hybrid(cfg);
    return static_cast<double>(std::max<std::uint64_t>(
        hybrid.solve(cnf).stats.iterations, 1));
}

} // namespace

int
main()
{
    std::printf("=== Table III: HyQSAT scalability over Chimera grid "
                "sizes (10%% bit-flip noise) ===\n");
    const int count = bench::fullScale()            ? 5
                      : std::getenv("HYQSAT_BENCH_TINY") ? 1
                                                         : 2;
    std::printf("(%d instances per row)\n", count);

    const std::vector<int> grids{16, 24, 32, 64};
    Table table;
    table.setHeader({"Benchmark", "16x16", "24x24", "32x32", "64x64"});

    auto addRow = [&](const std::string &label,
                      const std::vector<Instance> &instances,
                      std::uint64_t seed_base) {
        std::vector<std::string> row{label};
        for (int grid : grids) {
            OnlineStats reds;
            for (std::size_t i = 0; i < instances.size(); ++i) {
                const double hybrid_iters = hybridIterations(
                    instances[i].cnf, grid, seed_base + i);
                reds.add(bench::ratio(
                    instances[i].classic_iterations, hybrid_iters));
            }
            row.push_back(Table::num(reds.mean(), 2));
        }
        // Stream each completed row so slow hosts still show
        // progress (the full table prints again at the end).
        std::printf("row done:");
        for (const auto &cell : row)
            std::printf(" %s", cell.c_str());
        std::printf("\n");
        std::fflush(stdout);
        table.addRow(row);
    };

    for (const char *id : {"AI1", "AI2", "AI3", "AI4", "AI5"}) {
        const auto &benchmark = gen::BenchmarkSuite::byId(id);
        std::vector<Instance> instances;
        for (int i = 0; i < count; ++i) {
            Instance inst;
            inst.cnf = benchmark.make(i, 0x7ab3);
            const auto classic = core::solveClassicCdcl(
                inst.cnf, sat::SolverOptions::minisatStyle());
            inst.classic_iterations =
                static_cast<double>(classic.stats.iterations);
            instances.push_back(std::move(inst));
        }
        addRow(id, instances, 100);
    }

    {
        std::vector<Instance> instances;
        for (int i = 0; i < count; ++i) {
            Instance inst;
            Rng rng(0x500 + i);
            // Slightly below the phase transition so the classic
            // baseline terminates in bench time on one core.
            inst.cnf = gen::uniformRandom3Sat(500, 2000, rng);
            const auto classic = core::solveClassicCdcl(
                inst.cnf, sat::SolverOptions::minisatStyle());
            inst.classic_iterations =
                static_cast<double>(classic.stats.iterations);
            instances.push_back(std::move(inst));
        }
        addRow("Var500", instances, 200);
    }

    table.print();
    std::printf("\nPaper (Table III): reductions grow sharply once "
                "the grid embeds most clauses (AI rows jump from "
                "~4-6x at 16x16 to hundreds at 24x24+; Var500 needs "
                "32x32+). Shape to check: reductions non-decreasing "
                "with grid size, with the largest gains where the "
                "formula first fits (shifted to larger grids here - "
                "our embedder packs one variable per vertical "
                "line).\n");
    return 0;
}
