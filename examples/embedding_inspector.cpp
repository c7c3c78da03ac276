/**
 * @file
 * Example: inspect the §IV-B linear-time embedding. Builds a clause
 * queue from a random 3-SAT instance, embeds it on a small Chimera
 * chip and renders an ASCII picture of which qubits each chain
 * occupies, plus chain-length statistics against the Minorminer
 * baseline.
 *
 *   ./build/examples/embedding_inspector [rows] [cols]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "embed/hyqsat_embedder.h"
#include "embed/minorminer.h"
#include "gen/random_sat.h"
#include "qubo/encoder.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    const int rows = argc > 1 ? std::atoi(argv[1]) : 6;
    const int cols = argc > 2 ? std::atoi(argv[2]) : 6;
    const topology::Topology graph(rows, cols, 4);

    Rng rng(0xe1);
    const auto cnf = gen::uniformRandom3Sat(18, 40, rng);
    const std::vector<sat::LitVec> queue(cnf.clauses().begin(),
                                         cnf.clauses().end());

    embed::HyQsatEmbedder embedder(graph);
    const auto r = embedder.embedQueue(queue);
    std::printf("Embedded %d/%zu clauses on a %dx%d Chimera chip "
                "(%d qubits) in %.1f us\n",
                r.embedded_clauses, queue.size(), rows, cols,
                graph.numQubits(), r.seconds * 1e6);
    std::printf("Problem graph: %d nodes, %zu edges; chains: avg "
                "%.2f, max %d, total qubits %d\n",
                r.problem.numNodes(), r.problem.edges().size(),
                r.embedding.averageChainLength(),
                r.embedding.maxChainLength(),
                r.embedding.totalQubits());

    std::string why;
    std::printf("Embedding validity: %s%s\n",
                r.embedding.isValid(graph, r.problem.edges(), &why)
                    ? "OK"
                    : "INVALID - ",
                why.c_str());

    // ASCII map: for each cell print how many chain qubits it holds
    // on the vertical (V) and horizontal (H) shores.
    std::vector<int> owner(graph.numQubits(), -1);
    for (int nnode = 0; nnode < r.embedding.numNodes(); ++nnode)
        for (int q : r.embedding.chain(nnode))
            owner[q] = nnode;
    std::printf("\nCell occupancy map (used/8 qubits per cell):\n");
    for (int row = 0; row < rows; ++row) {
        std::printf("  ");
        for (int col = 0; col < cols; ++col) {
            int used = 0;
            for (int t = 0; t < 4; ++t) {
                used += owner[graph.qubitId(
                            row, col, topology::Shore::Vertical, t)] >=
                        0;
                used +=
                    owner[graph.qubitId(
                        row, col, topology::Shore::Horizontal, t)] >= 0;
            }
            std::printf("%d ", used);
        }
        std::printf("\n");
    }

    // Compare chain lengths against Minorminer on the same prefix.
    embed::MinorminerOptions mo;
    mo.timeout_seconds = 30;
    embed::MinorminerEmbedder minorminer(graph, mo);
    const auto mm =
        minorminer.embed(r.problem.numNodes(), r.problem.edges());
    if (mm.success) {
        std::printf("\nMinorminer on the same problem: %.3f s, avg "
                    "chain %.2f (HyQSAT: %.1f us, avg chain %.2f -> "
                    "%.2fx longer)\n",
                    mm.seconds, mm.embedding.averageChainLength(),
                    r.seconds * 1e6,
                    r.embedding.averageChainLength(),
                    r.embedding.averageChainLength() /
                        std::max(mm.embedding.averageChainLength(),
                                 1e-9));
    } else {
        std::printf("\nMinorminer failed to embed this problem "
                    "within %.0f s.\n",
                    mo.timeout_seconds);
    }
    return 0;
}
