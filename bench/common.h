/**
 * @file
 * Shared helpers for the reproduction benches: canonical annealer
 * configurations, benchmark-suite sizing, and run-scale control.
 *
 * Every bench binary regenerates one table or figure of the paper
 * (see DESIGN.md's per-experiment index). By default the benches run
 * at a reduced instance count so the whole bench suite finishes in
 * minutes; set HYQSAT_BENCH_SCALE=full for paper-sized runs.
 */

#ifndef HYQSAT_BENCH_COMMON_H
#define HYQSAT_BENCH_COMMON_H

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/hybrid_solver.h"
#include "gen/benchmarks.h"

namespace hyqsat::bench {

/** True when HYQSAT_BENCH_SCALE=full is exported. */
inline bool
fullScale()
{
    const char *scale = std::getenv("HYQSAT_BENCH_SCALE");
    return scale && std::string(scale) == "full";
}

/** Instances per benchmark family for suite-wide benches. */
inline int
instancesFor(const gen::Benchmark &benchmark)
{
    if (fullScale())
        return benchmark.default_count;
    // Reduced counts keep the default bench sweep at minutes.
    if (benchmark.id == "IF2")
        return 2;
    if (benchmark.id == "II")
        return 5;
    if (benchmark.id == "IF1")
        return 3;
    return std::min(benchmark.default_count, 4);
}

/**
 * Backend selection for the whole bench suite: HYQSAT_SAMPLER names
 * the sampling backend ("sync", "qa", "logical", "sa", "batch",
 * "async", "async:<backend>") and HYQSAT_PIPELINE_DEPTH sets the
 * async in-flight depth. Unset keeps the classic blocking loop.
 */
inline void
applySamplerEnv(core::HybridConfig &cfg)
{
    if (const char *name = std::getenv("HYQSAT_SAMPLER"))
        cfg.sampler = name;
    if (const char *depth = std::getenv("HYQSAT_PIPELINE_DEPTH"))
        cfg.pipeline_depth = std::max(1, std::atoi(depth));
}

/** The §VI-B noise-free simulator configuration. */
inline core::HybridConfig
noiseFreeConfig(std::uint64_t seed = 0x5eedba5e)
{
    core::HybridConfig cfg;
    cfg.annealer = anneal::QuantumAnnealer::Options::simulator();
    cfg.seed = seed;
    applySamplerEnv(cfg);
    return cfg;
}

/** The §VI-C noisy D-Wave 2000Q-like configuration. */
inline core::HybridConfig
noisyConfig(std::uint64_t seed = 0x2000aced)
{
    core::HybridConfig cfg;
    cfg.annealer = anneal::QuantumAnnealer::Options::dwave2000q();
    cfg.seed = seed;
    applySamplerEnv(cfg);
    return cfg;
}

/** Ratio with a guarded denominator. */
inline double
ratio(double a, double b)
{
    return a / std::max(b, 1e-12);
}

} // namespace hyqsat::bench

#endif // HYQSAT_BENCH_COMMON_H
