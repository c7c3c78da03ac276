/**
 * @file
 * Microbenchmarks for the SAT substrate's hot paths (propagation,
 * full solves, a UUF200 refutation, clause-queue generation) using
 * google-benchmark.
 */

#include <benchmark/benchmark.h>

#include "core/clause_queue.h"
#include "gen/random_sat.h"
#include "sat/solver.h"
#include "util/metrics.h"
#include "util/rng.h"

using namespace hyqsat;

namespace {

void
BM_SolveRandom3Sat(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(n * 4.26);
    Rng rng(42);
    const auto cnf = gen::uniformRandom3Sat(n, m, rng);
    for (auto _ : state) {
        sat::Solver solver;
        solver.loadCnf(cnf);
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SolveRandom3Sat)->Arg(50)->Arg(100)->Arg(150);

// Overhead contract for the observability layer: this variant runs
// the identical solve with a registry attached. The acceptance bar
// is < 2% vs BM_SolveRandom3Sat (publishing is delta-based at
// restart boundaries; the propagate/decide hot loop is untouched).
void
BM_SolveRandom3SatMetricsEnabled(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(n * 4.26);
    Rng rng(42);
    const auto cnf = gen::uniformRandom3Sat(n, m, rng);
    MetricsRegistry registry;
    for (auto _ : state) {
        sat::Solver solver;
        solver.attachMetrics(&registry);
        solver.loadCnf(cnf);
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SolveRandom3SatMetricsEnabled)->Arg(50)->Arg(100)->Arg(150);

// One refutation per iteration of an unsatisfiable 200-variable,
// 1100-clause uniform 3-SAT draw: the hard_uf benchmark's CDCL shape
// (watch-list walks, conflict analysis, reduceDB, garbage collection).
// props_per_s is the propagate() throughput; conflicts pins the
// search, which must not move when only the hot path changes.
void
BM_RefuteUuf200(benchmark::State &state)
{
    Rng rng(46);
    const auto cnf = gen::uniformRandom3Sat(200, 1100, rng);
    std::uint64_t propagations = 0, conflicts = 0;
    for (auto _ : state) {
        sat::Solver solver(sat::SolverOptions::minisatStyle());
        solver.loadCnf(cnf);
        const sat::lbool result = solver.solve();
        benchmark::DoNotOptimize(result);
        if (!result.isFalse()) {
            state.SkipWithError("the UUF200 draw is satisfiable");
            break;
        }
        propagations += solver.stats().propagations;
        conflicts = solver.stats().conflicts;
    }
    state.counters["props_per_s"] = benchmark::Counter(
        static_cast<double>(propagations), benchmark::Counter::kIsRate);
    state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_RefuteUuf200)->Unit(benchmark::kMillisecond);

void
BM_LoadAndPropagate(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(43);
    // Horn-heavy: load triggers long unit-propagation chains.
    const auto cnf = gen::randomHornLike(n, 3 * n, 0.95, rng);
    for (auto _ : state) {
        sat::Solver solver;
        benchmark::DoNotOptimize(solver.loadCnf(cnf));
    }
}
BENCHMARK(BM_LoadAndPropagate)->Arg(200)->Arg(1000);

void
BM_ClauseQueueGeneration(benchmark::State &state)
{
    Rng rng(44);
    const auto cnf = gen::uniformRandom3Sat(200, 860, rng);
    sat::Solver solver;
    solver.loadCnf(cnf);
    Rng qrng(45);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::generateClauseQueue(solver, {}, qrng));
    }
}
BENCHMARK(BM_ClauseQueueGeneration);

} // namespace

BENCHMARK_MAIN();
