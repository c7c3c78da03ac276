/**
 * @file
 * Reproduces Figure 13: embedding-scheme comparison between the
 * HyQSAT §IV-B scheme, the Minorminer-style iterative heuristic and
 * the place-and-route baseline: (a) embedding time, (b) success
 * rate, (c) average chain length, as the number of embedded clauses
 * grows.
 *
 * Queues are BFS clause queues (the frontend's own shape) drawn
 * from random 3-SAT instances sized so every distinct variable can
 * own a vertical line, matching the paper's protocol of 50 queues
 * of 250 clauses. Our reimplemented schemes saturate earlier than
 * the production implementations (see EXPERIMENTS.md for the
 * constant-factor discussion); the orders of magnitude and the
 * relative ordering are the reproduced shape.
 */

#include <cstdio>

#include "bench/common.h"
#include "core/clause_queue.h"
#include "embed/hyqsat_embedder.h"
#include "embed/minorminer.h"
#include "embed/place_route.h"
#include "gen/random_sat.h"
#include "qubo/encoder.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyqsat;

int
main()
{
    std::printf("=== Figure 13: embedding time / success rate / "
                "chain length ===\n");
    const int num_queues = bench::fullScale() ? 20 : 5;
    const std::vector<int> sizes{5, 10, 15, 20, 30, 40, 50, 60};
    std::printf("(%d queues per point)\n", num_queues);

    const auto graph = topology::Topology::dwave2000q();

    // Build BFS clause queues from fresh solver states.
    std::vector<std::vector<sat::LitVec>> queues;
    Rng rng(0xf13);
    for (int q = 0; q < num_queues; ++q) {
        const auto cnf = gen::uniformRandom3Sat(60, 250, rng);
        sat::Solver solver;
        if (!solver.loadCnf(cnf))
            continue;
        core::ClauseQueueOptions qo;
        qo.capacity = 250;
        Rng qrng(q);
        const auto indices =
            core::generateClauseQueue(solver, qo, qrng);
        std::vector<sat::LitVec> queue;
        for (int ci : indices)
            queue.push_back(solver.originalClause(ci));
        queues.push_back(std::move(queue));
    }

    Table table;
    table.setHeader({"#Clauses", "HyQ us", "HyQ ok%", "HyQ chain",
                     "MM s", "MM ok%", "MM chain", "P&R s",
                     "P&R ok%", "P&R chain"});

    for (int size : sizes) {
        OnlineStats hq_time, hq_chain, mm_time, mm_chain, pr_time,
            pr_chain;
        int hq_ok = 0, mm_ok = 0, pr_ok = 0, total = 0;
        for (const auto &queue : queues) {
            if (static_cast<int>(queue.size()) < size)
                continue;
            ++total;
            const std::vector<sat::LitVec> prefix(
                queue.begin(), queue.begin() + size);

            // HyQSAT scheme: success when the whole prefix embeds.
            embed::HyQsatEmbedder hq(graph);
            const auto hr = hq.embedQueue(prefix);
            hq_time.add(hr.seconds);
            if (hr.all_embedded) {
                ++hq_ok;
                hq_chain.add(hr.embedding.averageChainLength());
            }

            // Baselines embed the encoded problem graph directly.
            const auto problem = qubo::encodeClauses(prefix);
            embed::MinorminerOptions mo;
            mo.timeout_seconds = bench::fullScale() ? 300 : 20;
            mo.seed = 7 + size;
            embed::MinorminerEmbedder mm(graph, mo);
            const auto mr =
                mm.embed(problem.numNodes(), problem.edges());
            mm_time.add(mr.seconds);
            if (mr.success) {
                ++mm_ok;
                mm_chain.add(mr.embedding.averageChainLength());
            }

            embed::PlaceRouteOptions po;
            po.timeout_seconds = bench::fullScale() ? 300 : 20;
            po.seed = 11 + size;
            embed::PlaceRouteEmbedder pr(graph, po);
            const auto rr =
                pr.embed(problem.numNodes(), problem.edges());
            pr_time.add(rr.seconds);
            if (rr.success) {
                ++pr_ok;
                pr_chain.add(rr.embedding.averageChainLength());
            }
        }
        if (total == 0)
            continue;
        auto pct = [&](int ok) {
            return Table::num(100.0 * ok / total, 0);
        };
        table.addRow({std::to_string(size),
                      Table::num(hq_time.mean() * 1e6, 1),
                      pct(hq_ok), Table::num(hq_chain.mean(), 2),
                      Table::sci(mm_time.mean(), 2), pct(mm_ok),
                      Table::num(mm_chain.mean(), 2),
                      Table::sci(pr_time.mean(), 2), pct(pr_ok),
                      Table::num(pr_chain.mean(), 2)});
    }
    table.print();
    std::printf("\nPaper (Fig. 13): HyQSAT embeds in ~15.7us vs "
                "17.2s (Minorminer, ~9e5x) and ~45s (P&R, ~2.6e6x); "
                "success flat then cliff (HyQSAT capacity slightly "
                "below Minorminer, above P&R); HyQSAT chains ~1.59x "
                "longer. Shape to check: microseconds vs seconds, "
                "the success-rate cliff ordering, and longer HyQSAT "
                "chains.\n");
    return 0;
}
