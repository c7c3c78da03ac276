/**
 * @file
 * Microbenchmarks for the embedding and annealing hot paths,
 * using google-benchmark: the §IV-B linear-time embedder, the QUBO
 * encoder and one annealer sample.
 */

#include <benchmark/benchmark.h>

#include "anneal/annealer.h"
#include "embed/hyqsat_embedder.h"
#include "gen/random_sat.h"
#include "qubo/encoder.h"
#include "util/rng.h"

using namespace hyqsat;

namespace {

std::vector<sat::LitVec>
fixtureQueue(int clauses)
{
    Rng rng(7);
    const auto cnf = gen::uniformRandom3Sat(60, clauses, rng);
    return {cnf.clauses().begin(), cnf.clauses().end()};
}

void
BM_HyQsatEmbed(benchmark::State &state)
{
    const auto graph = topology::Topology::dwave2000q();
    const auto queue =
        fixtureQueue(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        embed::HyQsatEmbedder embedder(graph);
        benchmark::DoNotOptimize(embedder.embedQueue(queue));
    }
}
BENCHMARK(BM_HyQsatEmbed)->Arg(10)->Arg(40)->Arg(150);

void
BM_EncodeClauses(benchmark::State &state)
{
    const auto queue =
        fixtureQueue(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(qubo::encodeClauses(queue));
}
BENCHMARK(BM_EncodeClauses)->Arg(40)->Arg(150);

void
BM_AnnealerSample(benchmark::State &state)
{
    const auto graph = topology::Topology::dwave2000q();
    const auto queue = fixtureQueue(40);
    embed::HyQsatEmbedder embedder(graph);
    const auto fx = embedder.embedQueue(queue);
    anneal::QuantumAnnealer::Options opts;
    opts.noise.sweeps = static_cast<int>(state.range(0));
    anneal::QuantumAnnealer annealer(graph, opts);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            annealer.sample(fx.problem, fx.embedding));
    }
}
BENCHMARK(BM_AnnealerSample)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
