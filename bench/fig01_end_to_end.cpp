/**
 * @file
 * Reproduces Figure 1: end-to-end time to solve one 3-SAT problem
 * (128 variables, 150 clauses) under three approaches:
 *   - classic CDCL on the host CPU,
 *   - a pure-QA flow (embed everything with Minorminer, then 60
 *     samples with inter-sample delays),
 *   - HyQSAT (one sample per warm-up iteration, fast embedding).
 */

#include <cstdio>

#include "bench/common.h"
#include "embed/minorminer.h"
#include "gen/random_sat.h"
#include "qubo/encoder.h"
#include "util/table.h"
#include "util/timer.h"

using namespace hyqsat;

int
main()
{
    std::printf("=== Figure 1: end-to-end time, 128 variables / 150 "
                "clauses ===\n");
    Rng rng(0xf1);
    const auto cnf = gen::plantedRandom3Sat(128, 150, rng);

    Table table;
    table.setHeader({"Approach", "Embedding", "Compute", "Total"});

    // Classic CDCL.
    const auto classic = core::solveClassicCdcl(
        cnf, sat::SolverOptions::minisatStyle());
    table.addRow({"CDCL (CPU)", "-",
                  Table::num(classic.time.cdcl_s * 1e6, 1) + " us",
                  Table::num(classic.time.cdcl_s * 1e6, 1) + " us"});

    // Pure QA: Minorminer embedding of the whole formula + 60
    // samples (the paper's Fig. 1 sampling budget).
    {
        const auto graph = topology::Topology::dwave2000q();
        const std::vector<sat::LitVec> clauses(cnf.clauses().begin(),
                                               cnf.clauses().end());
        const auto problem = qubo::encodeClauses(clauses);
        embed::MinorminerOptions mopts;
        mopts.timeout_seconds = bench::fullScale() ? 300.0 : 60.0;
        embed::MinorminerEmbedder minorminer(graph, mopts);
        Timer embed_timer;
        const auto embedded =
            minorminer.embed(problem.numNodes(), problem.edges());
        const double embed_s = embed_timer.seconds();

        anneal::TimingModel timing;
        timing.anneal_us = 10; // the paper's Fig. 1 uses 10us anneal
        const double qa_us = timing.sampleTimeUs(60);
        table.addRow(
            {std::string("QA only (Minorminer, 60 samples)") +
                 (embedded.success ? "" : " [embedding FAILED]"),
             Table::num(embed_s, 2) + " s",
             Table::num(qa_us, 0) + " us",
             Table::num(embed_s + qa_us * 1e-6, 2) + " s"});
    }

    // HyQSAT: one blocking sample per warm-up iteration.
    {
        core::HybridSolver hybrid(bench::noisyConfig());
        const auto result = hybrid.solve(cnf);
        const double embed_us = result.time.frontend_s * 1e6;
        const double rest_us =
            (result.time.qa_device_s + result.time.backend_s +
             result.time.cdcl_s) *
            1e6;
        table.addRow({"HyQSAT (simulated 2000Q)",
                      Table::num(embed_us, 1) + " us",
                      Table::num(rest_us, 1) + " us",
                      Table::num(result.time.endToEnd() * 1e6, 1) +
                          " us"});
        std::printf("HyQSAT: %s, %d QA samples, mean embedding "
                    "%0.1f us/iteration, QA device %0.1f us\n",
                    result.status.isTrue()    ? "SAT"
                    : result.status.isFalse() ? "UNSAT"
                                              : "UNDEF",
                    result.qa_samples,
                    result.qa_samples
                        ? embed_us / result.qa_samples
                        : 0.0,
                    result.time.qa_device_s * 1e6);
    }

    table.print();
    std::printf("\nPaper (Fig. 1): CDCL ~8000us, QA-only ~10s "
                "embedding + 8380us sampling, HyQSAT ~4000us with "
                "<16us embedding. Shape to check: QA-only embedding "
                "dominates by orders of magnitude; HyQSAT total is "
                "the same order as CDCL or better, with tiny "
                "per-iteration embedding cost.\n");
    return 0;
}
