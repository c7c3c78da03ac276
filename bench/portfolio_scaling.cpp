/**
 * @file
 * Portfolio scaling bench: races 1/2/4/8 diversified workers over a
 * curated hard random 3-SAT set near the phase transition
 * (m/n ~ 4.26, the regime where single-config variance is largest)
 * and reports per-worker-count wall clock, the per-config
 * single-solver baseline, cooperative-cancellation latency, and the
 * median race overhead: race wall time minus the winner's own
 * worker seconds (what the race adds around the winning solve).
 *
 * Acceptance bar (ISSUE 2): 4 diverse workers' total wall clock <=
 * the best single config on the set, never worse than 1.2x the best
 * single config on any one instance, and cancellation latency after
 * the first solution < 50 ms. A JSON trajectory line per
 * configuration is emitted for the BENCH log.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "gen/random_sat.h"
#include "portfolio/portfolio.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

using namespace hyqsat;

int
main()
{
    std::printf("=== Portfolio scaling: diverse-config racing on "
                "phase-transition random 3-SAT ===\n");
    const unsigned cores = bench::usableCpus();
    std::printf("usable CPUs: %u (racing needs >= 4 cores for "
                "the wall-clock-vs-best-single bar; below that the "
                "workers time-slice and the ratio mostly measures "
                "oversubscription)\n",
                cores);

    const int instances = bench::fullScale()              ? 12
                          : std::getenv("HYQSAT_BENCH_TINY") ? 3
                                                            : 6;
    const int base_vars = bench::fullScale() ? 120 : 80;

    // Curated hard set: uniform random 3-SAT at m/n ~ 4.26.
    std::vector<sat::Cnf> suite;
    for (int i = 0; i < instances; ++i) {
        const int n = base_vars + 10 * (i % 3);
        const int m = static_cast<int>(n * 4.26);
        Rng rng(0xf017f017ull + 7919ull * static_cast<std::uint64_t>(i));
        suite.push_back(gen::uniformRandom3Sat(n, m, rng));
    }

    core::HybridConfig base = bench::noiseFreeConfig(0x5ca1ab1e);
    base.max_warmup = 64; // keep QA warm-up proportionate on this set

    // Per-config single-solver baseline over the diversification
    // slate actually raced at 4 workers.
    const auto slate = portfolio::PortfolioSolver::diversify(base, 4);
    std::map<std::string, double> config_total;
    std::vector<double> best_single_per_instance(suite.size(), 0.0);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        double best = -1.0;
        for (const auto &w : slate) {
            Timer t;
            core::HybridSolver solver(w.hybrid);
            (void)solver.solve(suite[i]);
            const double s = t.seconds();
            config_total[w.label] += s;
            if (best < 0.0 || s < best)
                best = s;
        }
        best_single_per_instance[i] = best;
    }
    double best_config_total = -1.0;
    std::string best_config;
    for (const auto &[label, total] : config_total) {
        if (best_config_total < 0.0 || total < best_config_total) {
            best_config_total = total;
            best_config = label;
        }
    }

    Table table;
    table.setHeader({"workers", "wall_s", "vs best single",
                     "max instance ratio", "cancel ms (max)",
                     "overhead ms (median)"});
    for (const int workers : {1, 2, 4, 8}) {
        portfolio::PortfolioOptions opts;
        opts.base = base;
        opts.num_workers = workers;
        portfolio::PortfolioSolver solver(opts);

        double total = 0.0, worst_ratio = 0.0, worst_cancel_ms = 0.0;
        int undecided = 0;
        std::vector<double> overhead_ms;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const auto result = solver.solve(suite[i]);
            total += result.wall_s;
            if (result.status.isUndef())
                ++undecided;
            else
                overhead_ms.push_back(
                    1e3 * (result.wall_s -
                           result.workers[static_cast<std::size_t>(
                                              result.winner)]
                               .seconds));
            if (best_single_per_instance[i] > 0.0) {
                worst_ratio = std::max(
                    worst_ratio,
                    result.wall_s / best_single_per_instance[i]);
            }
            worst_cancel_ms = std::max(
                worst_cancel_ms, result.cancel_latency_s * 1e3);
        }

        table.addRow({std::to_string(workers), Table::num(total, 3),
                      Table::num(total / best_config_total, 2) + "x",
                      Table::num(worst_ratio, 2) + "x",
                      Table::num(worst_cancel_ms, 2),
                      Table::num(median(overhead_ms), 3)});
        std::printf("BENCH {\"bench\":\"portfolio_scaling\","
                    "\"workers\":%d,\"wall_s\":%.4f,"
                    "\"best_single_total_s\":%.4f,"
                    "\"best_single_config\":\"%s\","
                    "\"max_instance_ratio\":%.3f,"
                    "\"max_cancel_latency_ms\":%.3f,"
                    "\"median_overhead_ms\":%.4f,"
                    "\"undecided\":%d,\"instances\":%zu,"
                    "\"cores\":%u}\n",
                    workers, total, best_config_total,
                    best_config.c_str(), worst_ratio, worst_cancel_ms,
                    median(overhead_ms), undecided, suite.size(),
                    cores);
    }

    std::printf("\nsingle-config totals over the set:\n");
    for (const auto &[label, total] : config_total)
        std::printf("  %-14s %.3f s%s\n", label.c_str(), total,
                    label == best_config ? "  <- best" : "");
    std::printf("\n");
    table.print();
    return 0;
}
