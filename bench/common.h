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

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "core/hybrid_solver.h"
#include "core/knobs.h"
#include "gen/benchmarks.h"

namespace hyqsat::bench {

/**
 * CPUs this process may run on: its affinity mask, not the host's
 * hardware thread count, so a taskset-pinned run sizes its helpers
 * and its scaling bars by the CPUs it actually gets.
 */
inline unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

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
 * the device model (qa|logical|sa), applied through the --sampler
 * knob row. Unset keeps "qa"; a value the row rejects is printed and
 * the process exits 2 before any solve, as the CLIs do.
 */
inline void
applySamplerEnv(core::HybridConfig &cfg)
{
    const char *value = std::getenv("HYQSAT_SAMPLER");
    if (!value)
        return;
    for (const core::Knob &knob : core::knobs()) {
        if (std::string_view(knob.flag) == "sampler" &&
            !knob.set(cfg, value)) {
            std::fprintf(stderr, "bad HYQSAT_SAMPLER: %s (expected %s)\n",
                         value, knob.syntax);
            std::exit(2);
        }
    }
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
