/**
 * @file
 * Determinism guard: the blocking one-sample-per-iteration path
 * must reproduce the pre-refactor (seed) solver bit for bit on a
 * fixed-seed suite. The golden table below was captured from the
 * blocking per-iteration loop before the pluggable sampler interface
 * landed; any change to RNG call ordering, sample scheduling or
 * warm-up accounting shows up here as a mismatch.
 */

#include <gtest/gtest.h>

#include "core/hybrid_solver.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

struct Golden
{
    int status; ///< 1 = SAT, 0 = UNSAT, -1 = UNDEF
    std::uint64_t iterations;
    std::uint64_t conflicts;
    int qa_samples;
    int warmup_iterations;
    int solved_by_qa;
    std::array<std::uint64_t, 4> strategies; ///< S1..S4
};

// Captured from the seed build (noise-free simulator, rounds 0-5).
const Golden kNoiseFreeGolden[] = {
    {0, 43, 36, 17, 17, 0, {0, 17, 0, 0}},
    {0, 60, 53, 19, 19, 0, {0, 19, 0, 0}},
    {0, 163, 146, 22, 22, 0, {0, 22, 0, 0}},
    {1, 71, 53, 24, 24, 0, {0, 24, 0, 0}},
    {0, 183, 157, 27, 27, 0, {0, 27, 0, 0}},
    {1, 350, 285, 30, 30, 0, {0, 30, 0, 0}},
};

// Captured from the seed build (noisy 2000Q model, rounds 0-2).
const Golden kNoisyGolden[] = {
    {0, 51, 43, 20, 20, 0, {0, 14, 5, 1}},
    {1, 110, 89, 20, 20, 0, {0, 11, 7, 2}},
    {1, 21, 4, 20, 20, 0, {0, 14, 6, 0}},
};

void
expectMatchesGolden(const HybridResult &r, const Golden &g,
                    const char *what, int round)
{
    const int status =
        r.status.isTrue() ? 1 : (r.status.isFalse() ? 0 : -1);
    EXPECT_EQ(status, g.status) << what << " round " << round;
    EXPECT_EQ(r.stats.iterations, g.iterations)
        << what << " round " << round;
    EXPECT_EQ(r.stats.conflicts, g.conflicts)
        << what << " round " << round;
    EXPECT_EQ(r.qa_samples, g.qa_samples)
        << what << " round " << round;
    EXPECT_EQ(r.warmup_iterations, g.warmup_iterations)
        << what << " round " << round;
    EXPECT_EQ(r.solved_by_qa ? 1 : 0, g.solved_by_qa)
        << what << " round " << round;
    for (int s = 1; s <= 4; ++s)
        EXPECT_EQ(r.strategy_count[s], g.strategies[s - 1])
            << what << " round " << round << " strategy " << s;
}

TEST(DeterminismGuard, SyncSamplerReproducesSeedNoiseFreeResults)
{
    for (int round = 0; round < 6; ++round) {
        Rng gen(1000 + round);
        const auto cnf = sat::testing::randomCnf(
            40 + 8 * round, 170 + 34 * round, 3, gen);
        HybridConfig cfg;
        cfg.annealer.noise = anneal::NoiseModel::noiseFree();
        cfg.annealer.greedy_finish = true;
        cfg.annealer.attempts = 2;
        cfg.seed = 0xd5eed + round;
        cfg.sampler = "qa";
        HybridSolver solver(cfg);
        expectMatchesGolden(solver.solve(cnf),
                            kNoiseFreeGolden[round], "noise-free",
                            round);
    }
}

TEST(DeterminismGuard, SyncSamplerReproducesSeedNoisyResults)
{
    for (int round = 0; round < 3; ++round) {
        Rng gen(2000 + round);
        const auto cnf = sat::testing::randomCnf(50, 212, 3, gen);
        HybridConfig cfg;
        cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
        cfg.annealer.greedy_finish = true;
        cfg.annealer.attempts = 1;
        cfg.seed = 0xabc + round;
        cfg.sampler = "qa";
        HybridSolver solver(cfg);
        expectMatchesGolden(solver.solve(cnf), kNoisyGolden[round],
                            "noisy", round);
    }
}

/** FNV-1a over a model's bits: pins the whole assignment in a word. */
std::uint64_t
modelDigest(const std::vector<bool> &model)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const bool bit : model)
        h = (h ^ (bit ? 1u : 0u)) * 0x100000001b3ull;
    return h ^ model.size();
}

struct LogicalGolden
{
    int status; ///< 1 = SAT, 0 = UNSAT, -1 = UNDEF
    std::uint64_t iterations;
    std::uint64_t model_digest; ///< of the empty model unless SAT
    std::array<std::uint64_t, 4> strategies; ///< S1..S4
};

// Captured before the ideal all-to-all device lost its second
// spelling (a bool beside the sampler name): rounds 0-2 noise-free,
// rounds 3-4 with the noisy 2000Q model.
const LogicalGolden kLogicalGolden[] = {
    {1, 10, 0xdd896a568357b379ull, {1, 10, 0, 0}},
    {0, 60, 0xcbf29ce484222325ull, {0, 17, 0, 0}},
    {1, 10, 0xc12a0148d86536aaull, {1, 10, 0, 0}},
    {1, 108, 0xb8182afc06deb6c3ull, {0, 17, 4, 0}},
    {1, 119, 0x4e2cf758117eb1f3ull, {0, 22, 1, 0}},
};

TEST(DeterminismGuard, LogicalDeviceReproducesPinnedResults)
{
    for (int round = 0; round < 5; ++round) {
        const bool noisy = round >= 3;
        Rng gen(3000 + round);
        const auto cnf = sat::testing::randomCnf(
            36 + 6 * round, 150 + 26 * round, 3, gen);
        HybridConfig cfg;
        cfg.annealer.noise = noisy ? anneal::NoiseModel::dwave2000q()
                                   : anneal::NoiseModel::noiseFree();
        cfg.annealer.greedy_finish = true;
        cfg.annealer.attempts = 1;
        cfg.seed = 0x10c1ca1 + round;
        cfg.sampler = "logical";
        HybridSolver solver(cfg);
        const HybridResult r = solver.solve(cnf);
        const int status =
            r.status.isTrue() ? 1 : (r.status.isFalse() ? 0 : -1);
        const LogicalGolden &g = kLogicalGolden[round];
        EXPECT_EQ(status, g.status) << "round " << round;
        EXPECT_EQ(r.stats.iterations, g.iterations) << "round " << round;
        EXPECT_EQ(modelDigest(r.model), g.model_digest)
            << "round " << round;
        for (int s = 1; s <= 4; ++s)
            EXPECT_EQ(r.strategy_count[s], g.strategies[s - 1])
                << "round " << round << " strategy " << s;
    }
}

struct SaGolden
{
    int status; ///< 1 = SAT, 0 = UNSAT, -1 = UNDEF
    std::uint64_t iterations;
    std::uint64_t conflicts;
    int qa_samples;
    std::uint64_t model_digest; ///< of the empty model unless SAT
    std::array<std::uint64_t, 4> strategies; ///< S1..S4
};

// Captured before the "sa" device became the logical annealer with
// its noise off and one attempt. Rows: {simulator, dwave2000q} preset
// x num_reads {1, 4}, two formulas each. The noisy preset's rows pin
// that "sa" ignores the preset's noise and attempts.
const SaGolden kSaGolden[] = {
    {0, 35, 31, 17, 0xcbf29ce484222325ull, {0, 17, 0, 0}},
    {1, 30, 18, 18, 0x7d099ac2f6125e15ull, {0, 18, 0, 0}},
    {1, 8, 3, 9, 0x2182f1c897187640ull, {1, 8, 0, 0}},
    {0, 82, 72, 18, 0xcbf29ce484222325ull, {0, 18, 0, 0}},
    {1, 48, 37, 17, 0x228f02dd61354287ull, {0, 16, 1, 0}},
    {1, 20, 7, 18, 0x2edbd13bc5e0cf96ull, {0, 18, 0, 0}},
    {1, 13, 5, 14, 0x135c147be6ca7f6eull, {0, 14, 0, 0}},
    {1, 13, 1, 14, 0x790d5e80af038e5cull, {1, 13, 0, 0}},
};

TEST(DeterminismGuard, SaDeviceReproducesPinnedResults)
{
    int row = 0;
    for (const bool noisy : {false, true}) {
        for (const int reads : {1, 4}) {
            for (int round = 0; round < 2; ++round, ++row) {
                Rng gen(4000 + row);
                const auto cnf = sat::testing::randomCnf(
                    40 + 6 * round, 170 + 26 * round, 3, gen);
                HybridConfig cfg;
                cfg.annealer =
                    noisy ? anneal::QuantumAnnealer::Options::dwave2000q()
                          : anneal::QuantumAnnealer::Options::simulator();
                cfg.num_reads = reads;
                cfg.seed = 0x5a5eed + row;
                cfg.sampler = "sa";
                HybridSolver solver(cfg);
                const HybridResult r = solver.solve(cnf);
                const int status =
                    r.status.isTrue() ? 1 : (r.status.isFalse() ? 0 : -1);
                const SaGolden &g = kSaGolden[row];
                EXPECT_EQ(status, g.status) << "row " << row;
                EXPECT_EQ(r.stats.iterations, g.iterations)
                    << "row " << row;
                EXPECT_EQ(r.stats.conflicts, g.conflicts)
                    << "row " << row;
                EXPECT_EQ(r.qa_samples, g.qa_samples) << "row " << row;
                EXPECT_EQ(modelDigest(r.model), g.model_digest)
                    << "row " << row;
                for (int s = 1; s <= 4; ++s)
                    EXPECT_EQ(r.strategy_count[s], g.strategies[s - 1])
                        << "row " << row << " strategy " << s;
            }
        }
    }
}

TEST(DeterminismGuard, RepeatedSolvesAreBitForBitIdentical)
{
    Rng gen(1234);
    const auto cnf = sat::testing::randomCnf(48, 204, 3, gen);
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
    cfg.annealer.greedy_finish = true;
    cfg.seed = 0x900d;

    HybridSolver solver(cfg);
    const auto a = solver.solve(cnf);
    const auto b = solver.solve(cnf); // same solver, fresh sampler
    HybridSolver other(cfg);
    const auto c = other.solve(cnf);

    for (const auto *r : {&b, &c}) {
        EXPECT_EQ(a.status.isTrue(), r->status.isTrue());
        EXPECT_EQ(a.stats.iterations, r->stats.iterations);
        EXPECT_EQ(a.stats.conflicts, r->stats.conflicts);
        EXPECT_EQ(a.qa_samples, r->qa_samples);
        EXPECT_EQ(a.model, r->model);
        EXPECT_EQ(a.strategy_count, r->strategy_count);
    }
}

} // namespace
} // namespace hyqsat::core
