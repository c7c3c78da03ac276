/**
 * @file
 * Shared helpers for the anneal-layer tests: the ISA tiers the host
 * can run, and real frontend-embedded problems (chained models of
 * the shape the hybrid loop actually anneals).
 */

#ifndef HYQSAT_TESTS_ANNEAL_HELPERS_H
#define HYQSAT_TESTS_ANNEAL_HELPERS_H

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "anneal/sa_batch_kernels.h"
#include "core/frontend.h"
#include "embed/hyqsat_embedder.h"
#include "gen/graph_coloring.h"
#include "sat/solver.h"
#include "topology/topology.h"
#include "util/rng.h"
#include "util/simd.h"

namespace hyqsat::anneal::testing {

/** Scalar plus every vector tier this host can execute. */
inline std::vector<simd::Isa>
hostTiers()
{
    const simd::Isa detected = simd::detectIsa();
    std::vector<simd::Isa> tiers{simd::Isa::Scalar};
    for (const simd::Isa cand :
         {simd::Isa::Avx2, simd::Isa::Avx512}) {
        if (simd::resolveIsa(cand, detected) == cand)
            tiers.push_back(cand);
    }
    return tiers;
}

/** Every BlockRng refill kernel this binary has and the host runs. */
inline std::vector<std::pair<simd::Isa, detail::UniformFill>>
hostFills()
{
    std::vector<std::pair<simd::Isa, detail::UniformFill>> fills{
        {simd::Isa::Scalar, detail::fillUniformsScalar}};
    for (const simd::Isa isa : hostTiers()) {
#if defined(HYQSAT_HAVE_AVX2_KERNEL)
        if (isa == simd::Isa::Avx2)
            fills.emplace_back(isa, detail::fillUniformsAvx2);
#endif
#if defined(HYQSAT_HAVE_AVX512_KERNEL)
        if (isa == simd::Isa::Avx512)
            fills.emplace_back(isa, detail::fillUniformsAvx512);
#endif
    }
    return fills;
}

/** One vector kernel's gather-free decide machinery. */
struct VectorDecide
{
    simd::Isa isa;
    std::size_t width; ///< lanes per vector (probe sizes divide by it)
    detail::LogFill log;
    detail::DecideProbe decide;
};

/** The decide machinery of every vector kernel the host runs. */
inline std::vector<VectorDecide>
hostVectorDecides()
{
    std::vector<VectorDecide> out;
    for (const simd::Isa isa : hostTiers()) {
#if defined(HYQSAT_HAVE_AVX2_KERNEL)
        if (isa == simd::Isa::Avx2)
            out.push_back({isa, 4, detail::minusLog64Avx2,
                           detail::decideUphillAvx2});
#endif
#if defined(HYQSAT_HAVE_AVX512_KERNEL)
        if (isa == simd::Isa::Avx512)
            out.push_back({isa, 8, detail::minusLog64Avx512,
                           detail::decideUphillAvx512});
#endif
    }
    return out;
}

/** The first frontend result of a solve of @p cnf on @p graph. */
inline std::shared_ptr<const embed::QueueEmbedResult>
frontendQueue(const topology::Topology &graph, const sat::Cnf &cnf)
{
    sat::SolverOptions sopts;
    sopts.instrument_clauses = true;
    sat::Solver solver(sopts);
    if (!solver.loadCnf(cnf))
        return nullptr;
    const core::Frontend frontend(graph, core::FrontendOptions{});
    Rng rng(17);
    std::shared_ptr<const embed::QueueEmbedResult> out;
    solver.setIterationHook([&](sat::Solver &s) {
        out = frontend.run(s, rng).embedded;
        s.requestStop();
    });
    (void)solver.solve();
    return out;
}

/** The first frontend result of a graph-coloring solve. */
inline std::shared_ptr<const embed::QueueEmbedResult>
frontendProblem(const topology::Topology &graph)
{
    Rng gen(4242);
    return frontendQueue(graph, gen::flatColoringCnf(40, 100, 3, gen));
}

} // namespace hyqsat::anneal::testing

#endif // HYQSAT_TESTS_ANNEAL_HELPERS_H
