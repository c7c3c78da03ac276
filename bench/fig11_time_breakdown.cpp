/**
 * @file
 * Reproduces Figure 11: where HyQSAT's end-to-end time goes -
 * frontend (queue + encode + embed), QA device time, backend
 * interpretation, and the remaining CDCL search (HYQSAT_SAMPLER
 * selects the backend).
 */

#include <cstdio>

#include "bench/common.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyqsat;

int
main()
{
    std::printf("=== Figure 11: HyQSAT end-to-end time breakdown "
                "===\n");
    if (!bench::fullScale())
        std::printf("(reduced instance counts)\n");

    Table table;
    table.setHeader({"Bench", "Frontend %", "QA %", "Backend %",
                     "CDCL %", "Total ms"});

    OnlineStats warmup_share;
    for (const auto &benchmark : gen::BenchmarkSuite::all()) {
        const int count = bench::instancesFor(benchmark);
        core::TimeBreakdown sum;
        for (int i = 0; i < count; ++i) {
            const auto cnf = benchmark.make(i, 0xf11);
            core::HybridSolver hybrid(bench::noisyConfig(i));
            const auto result = hybrid.solve(cnf);
            sum.frontend_s += result.time.frontend_s;
            sum.qa_device_s += result.time.qa_device_s;
            sum.backend_s += result.time.backend_s;
            sum.cdcl_s += result.time.cdcl_s;
        }
        const double total = sum.endToEnd();
        if (total <= 0)
            continue;
        table.addRow({benchmark.id,
                      Table::num(100 * sum.frontend_s / total, 1),
                      Table::num(100 * sum.qa_device_s / total, 1),
                      Table::num(100 * sum.backend_s / total, 1),
                      Table::num(100 * sum.cdcl_s / total, 1),
                      Table::num(total * 1e3, 2)});
        warmup_share.add(100 *
                         (sum.frontend_s + sum.qa_device_s +
                          sum.backend_s) /
                         total);
    }
    table.print();
    std::printf("\nMean warm-up share (frontend+QA+backend): %.1f%%\n",
                warmup_share.mean());
    std::printf("\nPaper (Fig. 11): warm-up stage ~41%% of the time, "
                "frontend only ~2.2%% (pipelined), QA small except "
                "on BP (~40%%, few total iterations), CDCL roughly "
                "half. Shape to check: frontend share small, CDCL "
                "the largest single component, BP's QA share "
                "outsized.\n");
    return 0;
}
