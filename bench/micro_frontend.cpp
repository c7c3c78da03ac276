/**
 * @file
 * Frontend fast-path micro-benchmark: measures one frontend pass
 * (clause queue -> QUBO encode -> Chimera embed) under four
 * configurations,
 *
 *   cold       one-shot Frontend::run on a scan solver at a deep
 *              search state: every buffer is allocated fresh and the
 *              unsatisfied-clause enumeration is an O(M*3) trail
 *              rescan (the pre-fast-path behaviour);
 *   warm       persistent FrontendWorkspace + incremental satisfied-
 *              clause tracking, cache disabled, same deep state:
 *              O(unsat) enumeration, but a full encode and embed per
 *              run;
 *   cache      warm plus the (embedding, encoding) memo: the per-
 *              iteration RNG is reseeded identically so every timed
 *              run is a cache hit;
 *   warm_full  warm at the first search iteration, where the queue
 *              is at capacity and the embed stops on a prefix (the
 *              hardware is full): the cost of a cache miss with a
 *              full queue. Its speedup_vs_cold is against a one-shot
 *              run at that same state,
 *
 * and emits one "BENCH {json}" trajectory line per path with the
 * per-iteration cost, the speedup over cold and allocs_per_run, the
 * heap allocations (global operator new calls) of one pass, counted
 * in an untimed pass after the timed loop. Acceptance bars at full
 * scale: warm >= 2x cold, cache >= 5x cold.
 *
 * The deep-state measurement runs inside the solver's iteration hook
 * at the first decision iteration whose level reaches a target
 * depth, on twin deterministic solvers (identical seeds/options
 * except the tracking flag), so both paths see the exact same trail;
 * the bench asserts the cold, warm and cache paths return identical
 * queues and embedded prefixes before reporting any number.
 *
 *   ./micro_frontend [--smoke]    (HYQSAT_BENCH_TINY=1 also works)
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/frontend.h"
#include "gen/random_sat.h"
#include "util/metrics.h"
#include "util/timer.h"

using namespace hyqsat;

namespace {

/** Heap allocations made through the global operator new. */
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** Per-path measurement: microseconds per frontend pass. */
struct PathTiming
{
    double per_iter_us = -1.0;
    double wall_s = 0.0;
    double allocs_per_run = 0.0;
    double speedup = 1.0; ///< vs the one-shot run at the same state
    int depth = 0;        ///< decision level of the measured state
    core::FrontendResult reference;
};

/**
 * Time @p reps calls of @p run into @p t, then count the heap
 * allocations of a few more in an untimed pass.
 */
template <typename Run>
void
measure(PathTiming &t, int reps, const Run &run)
{
    Timer timer;
    for (int i = 0; i < reps; ++i)
        run();
    t.wall_s = timer.seconds();
    t.per_iter_us = t.wall_s * 1e6 / reps;

    const int counted = std::min(reps, 20);
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < counted; ++i)
        run();
    t.allocs_per_run =
        static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                            before) /
        counted;
}

/** The compared surface of a FrontendResult (determinism check). */
bool
sameResult(const core::FrontendResult &a, const core::FrontendResult &b)
{
    return a.queue == b.queue &&
           a.embedded_clauses == b.embedded_clauses &&
           a.covers_all_unsatisfied == b.covers_all_unsatisfied &&
           a.embedded && b.embedded &&
           a.embedded->embedded_clauses == b.embedded->embedded_clauses &&
           a.embedded->all_embedded == b.embedded->all_embedded &&
           a.embedded->problem.numNodes() == b.embedded->problem.numNodes();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = std::getenv("HYQSAT_BENCH_TINY") != nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    }

    // Satisfiable-regime ratio (m/n = 3.5): the search reaches deep,
    // mostly-assigned states where nearly every clause is satisfied —
    // exactly the steady state of the hybrid warm-up, and the regime
    // where the cold path's O(M*3) rescan and allocation storm
    // dominate one frontend pass.
    int num_vars = smoke ? 120 : 2000;
    if (const char *env = std::getenv("HYQSAT_MICRO_FRONTEND_VARS"))
        num_vars = std::atoi(env);
    const int num_clauses = static_cast<int>(num_vars * 3.2);
    const double assigned_frac = 0.9;
    const int reps = smoke ? 100 : 2000;
    const int full_reps = smoke ? 20 : 400;
    const std::uint64_t queue_seed = 0x5eedc0de;

    std::printf("=== micro_frontend: frontend fast-path cost at a "
                "deep search state (%d vars, %d clauses, >= %.0f%% "
                "assigned, %d reps/path) ===\n",
                num_vars, num_clauses, assigned_frac * 100, reps);

    Rng gen(0xbe11c0de);
    const sat::Cnf cnf = gen::uniformRandom3Sat(num_vars, num_clauses, gen);
    const topology::Topology graph(16, 16, 4);

    core::FrontendOptions no_cache;
    no_cache.cache_embeddings = false;
    const core::Frontend fe_nocache(graph, no_cache);

    MetricsRegistry registry;
    const core::Frontend fe_cache(graph, {}, &registry);

    // Twin deterministic solvers: identical options/seed except the
    // tracking flag, so both reach the same trail at the same
    // iteration and the paths are timed against identical states.
    const auto makeOptions = [](bool tracking) {
        sat::SolverOptions opts;
        opts.instrument_clauses = true;
        opts.incremental_clause_tracking = tracking;
        return opts;
    };

    PathTiming cold, warm, cache, warm_full;
    int measured_level = -1;
    std::size_t measured_trail = 0;

    // Trigger for the timed section: deep, mostly-assigned state with
    // at least one unsatisfied clause (so the queue is non-empty). A
    // pure function of solver state, so the deterministic twins fire
    // at the exact same iteration.
    const auto atMeasurementState = [&](const sat::Solver &s) {
        int assigned = 0;
        for (sat::Var v = 0; v < s.numVars(); ++v) {
            if (!s.value(v).isUndef())
                ++assigned;
        }
        if (assigned <
            static_cast<int>(assigned_frac * s.numVars()))
            return false;
        for (int c = 0; c < s.numOriginalClauses(); ++c) {
            if (!s.originalClauseSatisfiedNow(c))
                return true;
        }
        return false;
    };

    // Path 1: cold, on the scan solver.
    {
        sat::Solver solver(makeOptions(false));
        if (!solver.loadCnf(cnf)) {
            std::printf("FAIL: instance trivially unsat\n");
            return 1;
        }
        solver.setIterationHook([&](sat::Solver &s) {
            if (cold.per_iter_us >= 0.0 || !atMeasurementState(s))
                return;
            measured_level = s.decisionLevel();
            measured_trail = s.unsatisfiedOriginalClauses().size();
            {
                Rng rng(queue_seed);
                cold.reference = fe_nocache.run(s, rng);
            }
            measure(cold, reps, [&] {
                Rng rng(queue_seed);
                (void)fe_nocache.run(s, rng);
            });
            s.requestStop();
        });
        (void)solver.solve();
    }

    // Paths 2+3: warm workspace and cache hit, on the tracking twin.
    {
        sat::Solver solver(makeOptions(true));
        if (!solver.loadCnf(cnf)) {
            std::printf("FAIL: instance trivially unsat\n");
            return 1;
        }
        core::FrontendWorkspace ws_warm, ws_cache, ws_full;
        solver.setIterationHook([&](sat::Solver &s) {
            // Warm full: the first iteration, queue at capacity. The
            // frontend only reads the solver, so the search goes on
            // to the deep state unchanged.
            if (warm_full.per_iter_us < 0.0) {
                warm_full.depth = s.decisionLevel();
                {
                    Rng rng(queue_seed);
                    warm_full.reference = fe_nocache.run(s, rng, ws_full);
                }
                measure(warm_full, full_reps, [&] {
                    Rng rng(queue_seed);
                    (void)fe_nocache.run(s, rng, ws_full);
                });
                PathTiming one_shot;
                measure(one_shot, full_reps, [&] {
                    Rng rng(queue_seed);
                    (void)fe_nocache.run(s, rng);
                });
                warm_full.speedup =
                    one_shot.per_iter_us / warm_full.per_iter_us;
            }
            if (warm.per_iter_us >= 0.0 || !atMeasurementState(s))
                return;

            // Warm: workspace reuse + incremental tracking, full
            // embed every run (cache off).
            {
                Rng rng(queue_seed);
                warm.reference = fe_nocache.run(s, rng, ws_warm);
            }
            measure(warm, reps, [&] {
                Rng rng(queue_seed);
                (void)fe_nocache.run(s, rng, ws_warm);
            });

            // Cache: first run misses and populates, every timed run
            // reseeds the same queue and hits.
            {
                Rng rng(queue_seed);
                cache.reference = fe_cache.run(s, rng, ws_cache);
            }
            measure(cache, reps, [&] {
                Rng rng(queue_seed);
                (void)fe_cache.run(s, rng, ws_cache);
            });
            s.requestStop();
        });
        (void)solver.solve();
    }

    cold.depth = warm.depth = cache.depth = measured_level;
    if (cold.per_iter_us < 0.0 || warm.per_iter_us < 0.0 ||
        cache.per_iter_us < 0.0 || warm_full.per_iter_us < 0.0) {
        std::printf("FAIL: search never reached the measurement "
                    "state (>= %.0f%% assigned with an unsatisfied "
                    "clause)\n",
                    assigned_frac * 100);
        return 1;
    }

    // Determinism: every path must produce the same frontend result
    // from the same trail and RNG seed, across the tracking twin.
    if (!sameResult(cold.reference, warm.reference) ||
        !sameResult(warm.reference, cache.reference)) {
        std::printf("FAIL: fast-path results diverge from the cold "
                    "path (queue/embedding mismatch)\n");
        return 1;
    }

    const core::FrontendResult &full = warm_full.reference;
    if (static_cast<int>(full.queue.size()) !=
            core::FrontendOptions{}.queue.capacity ||
        full.embedded->all_embedded) {
        std::printf("FAIL: warm_full state has a queue of %zu with %d "
                    "embedded; needs a full queue and a prefix embed\n",
                    full.queue.size(), full.embedded->embedded_clauses);
        return 1;
    }

    const auto hits = registry.counter("frontend.cache.hits")->value();
    const auto misses = registry.counter("frontend.cache.misses")->value();
    const double warm_speedup = cold.per_iter_us / warm.per_iter_us;
    const double cache_speedup = cold.per_iter_us / cache.per_iter_us;
    warm.speedup = warm_speedup;
    cache.speedup = cache_speedup;

    std::printf("measured at decision level %d, %zu unsatisfied "
                "clauses; queue %zu, embedded %zu\n",
                measured_level, measured_trail,
                cold.reference.queue.size(),
                cold.reference.embedded_clauses.size());
    std::printf("cold      %9.2f us/run  %8.1f allocs/run\n",
                cold.per_iter_us, cold.allocs_per_run);
    std::printf("warm      %9.2f us/run  %8.1f allocs/run  (%.2fx vs "
                "cold, bar >= 2x)\n",
                warm.per_iter_us, warm.allocs_per_run, warm_speedup);
    std::printf("cache     %9.2f us/run  %8.1f allocs/run  (%.2fx vs "
                "cold, bar >= 5x; %llu hits / %llu misses)\n",
                cache.per_iter_us, cache.allocs_per_run, cache_speedup,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
    std::printf("warm_full %9.2f us/run  %8.1f allocs/run  (%.2fx vs "
                "one-shot; queue %zu, embedded %zu)\n",
                warm_full.per_iter_us, warm_full.allocs_per_run,
                warm_full.speedup, full.queue.size(),
                full.embedded_clauses.size());

    const struct
    {
        const char *path;
        const PathTiming *t;
        int reps;
    } rows[] = {{"cold", &cold, reps},
                {"warm", &warm, reps},
                {"cache", &cache, reps},
                {"warm_full", &warm_full, full_reps}};
    for (const auto &row : rows) {
        const core::FrontendResult &ref = row.t->reference;
        std::printf("BENCH {\"bench\":\"micro_frontend\","
                    "\"path\":\"%s\",\"wall_s\":%.6f,"
                    "\"per_iter_us\":%.3f,\"speedup_vs_cold\":%.3f,"
                    "\"allocs_per_run\":%.1f,"
                    "\"reps\":%d,\"vars\":%d,\"clauses\":%d,"
                    "\"depth\":%d,\"queue_len\":%zu,"
                    "\"embedded\":%zu,"
                    "\"cache_hits\":%llu,\"cache_misses\":%llu}\n",
                    row.path, row.t->wall_s, row.t->per_iter_us,
                    row.t->speedup, row.t->allocs_per_run, row.reps,
                    num_vars, num_clauses,
                    row.t->depth, ref.queue.size(),
                    ref.embedded_clauses.size(),
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses));
    }

    // The acceptance bars apply at full scale; smoke runs are sized
    // for CI latency, where constant overheads dominate.
    if (!smoke && (warm_speedup < 2.0 || cache_speedup < 5.0)) {
        std::printf("FAIL: speedup below the acceptance bar "
                    "(warm %.2fx < 2x or cache %.2fx < 5x)\n",
                    warm_speedup, cache_speedup);
        return 1;
    }
    return 0;
}
