/**
 * @file
 * Annealer-level seed-golden tests: the SaGolden table pins the
 * SaSampler hot loop, but nothing below it pinned the full
 * QuantumAnnealer path — model compilation, control-noise replay,
 * de-embedding, tie-breaking — whose combined RNG consumption is the
 * num_reads=1 reproducibility contract.
 *
 * The constants below were captured from the pre-rewrite build
 * (commit before the CSR hot loop landed) running this exact
 * fixture — do NOT regenerate them from the current annealer; the
 * point is that they survive rewrites unchanged. Two flavors:
 *
 *  - clean: NoiseModel::noiseFree() (coefficient_sigma == 0 draws
 *    nothing — the legacy perturb() early-outed before ever calling
 *    Rng::gaussian, so the noise-free stream never held noise draws),
 *  - noisy: NoiseModel::dwave2000q() (the compiled replay schedule
 *    must reproduce the legacy per-sample draw order exactly).
 *
 * Bits and the post-run stream position are pinned exactly. The
 * physical energy is pinned to 1e-9 only: the rewrite accumulates it
 * delta by delta while the legacy build re-scanned at the end, which
 * differs in the last ulps on non-dyadic embedded models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "anneal/annealer.h"
#include "embed/hyqsat_embedder.h"
#include "sat/types.h"

namespace hyqsat::anneal {
namespace {

using sat::LitVec;
using sat::mkLit;

std::uint64_t
fnvBits(const std::vector<bool> &bits)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (bool b : bits) {
        h ^= static_cast<std::uint8_t>(b);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The fixture the golden constants were captured on. */
embed::QueueEmbedResult
goldenFixture(const topology::Topology &g)
{
    std::vector<LitVec> clauses;
    for (int i = 0; i < 12; ++i) {
        clauses.push_back({mkLit(i % 9),
                           mkLit((i + 3) % 9, (i & 1) != 0),
                           mkLit((i + 5) % 9, (i & 2) != 0)});
    }
    embed::HyQsatEmbedder embedder(g);
    return embedder.embedQueue(clauses);
}

struct GoldenShot
{
    std::uint64_t bits_fnv;
    double physical_energy;
};

struct GoldenFlavor
{
    bool noisy;
    bool greedy;
    GoldenShot shots[3];         ///< three consecutive sample() calls
    GoldenShot logical;          ///< then one sampleLogical()
    std::uint64_t rng_next;      ///< then rng().next()
};

constexpr GoldenFlavor kGoldenFlavors[] = {
    {false,
     true,
     {{0x6de60c1c7615fa13ull, -0x1.aeffffffffffbp+5},
      {0x147f52f4bbd7dbbdull, -0x1.aeffffffffffdp+5},
      {0xdca8568175bc7785ull, -0x1.aefffffffffffp+5}},
     {0x9e742ca37e7a3421ull, -0x1.5p-49},
     0x21d66d592551f05eull},
    {true,
     false,
     {{0xc443c41a6182875dull, -0x1.af48118ba0f87p+5},
      {0xf77391513b580d7aull, -0x1.b6807858b566ap+5},
      {0xdca8568175bc7785ull, -0x1.b7d5e75f532f1p+5}},
     {0x4d30d500f691ecc2ull, 0x1.5cfdb187c4d36p-3},
     0x3641dac719eadff0ull},
};

TEST(AnnealerGolden, SeedBitsAndRngStreamSurviveRewrites)
{
    const auto g = topology::Topology::dwave2000q();
    const auto fx = goldenFixture(g);
    for (const GoldenFlavor &flavor : kGoldenFlavors) {
        QuantumAnnealer::Options opts;
        opts.noise = flavor.noisy ? NoiseModel::dwave2000q()
                                  : NoiseModel::noiseFree();
        opts.greedy_finish = flavor.greedy;
        opts.attempts = 2;
        QuantumAnnealer qa(g, opts);
        for (int k = 0; k < 3; ++k) {
            const auto s = qa.sample(fx.problem, fx.embedding);
            EXPECT_EQ(fnvBits(s.node_bits), flavor.shots[k].bits_fnv)
                << "noisy " << flavor.noisy << " shot " << k;
            EXPECT_EQ(s.chain_breaks, 0)
                << "noisy " << flavor.noisy << " shot " << k;
            EXPECT_DOUBLE_EQ(s.clause_energy, 0.0);
            EXPECT_NEAR(s.physical_energy,
                        flavor.shots[k].physical_energy, 1e-9)
                << "noisy " << flavor.noisy << " shot " << k;
        }
        const auto s = qa.sampleLogical(fx.problem);
        EXPECT_EQ(fnvBits(s.node_bits), flavor.logical.bits_fnv)
            << "noisy " << flavor.noisy << " (logical)";
        EXPECT_DOUBLE_EQ(s.clause_energy, 0.0);
        EXPECT_NEAR(s.physical_energy, flavor.logical.physical_energy,
                    1e-9)
            << "noisy " << flavor.noisy << " (logical)";
        EXPECT_EQ(qa.rng().next(), flavor.rng_next)
            << "noisy " << flavor.noisy
            << " (RNG stream position diverged)";
    }
}

TEST(AnnealerGolden, MemoizedSlotDoesNotChangeTheStream)
{
    // The CompiledSlot overloads must sample identically to the
    // slot-free path: memoization skips model compilation, never a
    // draw. (Compilation itself consumes no RNG.)
    const auto g = topology::Topology::dwave2000q();
    const auto fx = goldenFixture(g);
    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::dwave2000q();
    opts.attempts = 2;
    QuantumAnnealer direct(g, opts);
    QuantumAnnealer memoized(g, opts);
    embed::CompiledSlot slot;
    for (int k = 0; k < 3; ++k) {
        const auto a = direct.sample(fx.problem, fx.embedding);
        const auto b =
            memoized.sample(fx.problem, fx.embedding, &slot);
        EXPECT_EQ(a.node_bits, b.node_bits) << "shot " << k;
        EXPECT_DOUBLE_EQ(a.physical_energy, b.physical_energy);
    }
    EXPECT_EQ(direct.sampleLogical(fx.problem).node_bits,
              memoized.sampleLogical(fx.problem, &slot).node_bits);
    EXPECT_EQ(direct.rng().next(), memoized.rng().next());
}

} // namespace
} // namespace hyqsat::anneal
