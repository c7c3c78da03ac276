/**
 * @file
 * Domain example: factor a semiprime by SAT (the paper's IF
 * benchmark domain). Encodes p * q == N as a multiplier circuit,
 * solves it with the hybrid solver and reads the factors out of the
 * model.
 *
 *   ./build/examples/factorization [N] [bits_p] [bits_q]
 */

#include <cstdio>
#include <cstdlib>

#include "core/hybrid_solver.h"
#include "gen/factorization.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                               : 3127; // 53 * 59
    const int bits_p = argc > 2 ? std::atoi(argv[2]) : 6;
    const int bits_q = argc > 3 ? std::atoi(argv[3]) : 6;

    std::printf("Factoring %llu with a %d x %d-bit multiplier "
                "circuit...\n",
                static_cast<unsigned long long>(n), bits_p, bits_q);
    const auto cnf = gen::factorizationCnf(n, bits_p, bits_q);
    std::printf("Encoded as CNF: %d variables, %d clauses\n",
                cnf.numVars(), cnf.numClauses());

    core::HybridConfig config;
    config.annealer = anneal::QuantumAnnealer::Options::simulator();
    core::HybridSolver solver(config);
    const auto result = solver.solve(sat::toThreeSat(cnf));

    if (!result.status.isTrue()) {
        std::printf("\nUNSATISFIABLE: %llu has no nontrivial "
                    "factorization with %d x %d-bit factors "
                    "(prime, or wrong widths).\n",
                    static_cast<unsigned long long>(n), bits_p,
                    bits_q);
        return 0;
    }

    // Inputs are the first CNF variables: p bits then q bits.
    std::uint64_t p = 0, q = 0;
    for (int i = 0; i < bits_p; ++i)
        if (result.model[i])
            p |= 1ull << i;
    for (int i = 0; i < bits_q; ++i)
        if (result.model[bits_p + i])
            q |= 1ull << i;

    std::printf("\nFound %llu = %llu * %llu in %llu CDCL iterations "
                "(%d QA samples)\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(p),
                static_cast<unsigned long long>(q),
                static_cast<unsigned long long>(
                    result.stats.iterations),
                result.qa_samples);
    if (p * q != n) {
        std::printf("BUG: product check failed!\n");
        return 1;
    }
    return 0;
}
