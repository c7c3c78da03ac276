#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "anneal/annealer.h"
#include "anneal/sa_batch.h"
#include "anneal/sa_batch_kernels.h"
#include "anneal/sa_sampler.h"
#include "embed/hyqsat_embedder.h"
#include "tests/anneal/helpers.h"
#include "topology/topology.h"
#include "util/simd.h"

namespace hyqsat::anneal {
namespace {

using testing::hostFills;
using testing::hostTiers;

/** Random test model: fields + ~60% dense couplings. */
qubo::IsingModel
randomModel(int n, std::uint64_t seed)
{
    qubo::IsingModel m(n);
    Rng setup(seed);
    for (int i = 0; i < n; ++i)
        m.addField(i, setup.gaussian(0, 1));
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (setup.chance(0.6))
                m.addCoupling(i, j, setup.gaussian(0, 1));
    return m;
}

// ----------------------------------------------------------------------
// BlockRng: seed-golden tables for the batched RNG stream
// ----------------------------------------------------------------------

TEST(BlockRng, GoldenWordsSeedZero)
{
    const BlockRng rng(0);
    EXPECT_EQ(rng.wordAt(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(rng.wordAt(1), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(rng.wordAt(2), 0x06c45d188009454full);
    EXPECT_EQ(rng.wordAt(3), 0xf88bb8a8724c81ecull);
}

TEST(BlockRng, GoldenWordsSeed42)
{
    const BlockRng rng(42);
    EXPECT_EQ(rng.wordAt(0), 0xbdd732262feb6e95ull);
    EXPECT_EQ(rng.wordAt(1), 0x28efe333b266f103ull);
    EXPECT_EQ(rng.wordAt(2), 0x47526757130f9f52ull);
    EXPECT_EQ(rng.wordAt(3), 0x581ce1ff0e4ae394ull);
}

TEST(BlockRng, GoldenUniforms)
{
    const BlockRng rng(42);
    EXPECT_DOUBLE_EQ(rng.uniformAt(0), 0.7415648787718233);
    EXPECT_DOUBLE_EQ(rng.uniformAt(1), 0.1599103928769201);
    EXPECT_DOUBLE_EQ(rng.uniformAt(2), 0.27860113025513866);
    EXPECT_DOUBLE_EQ(rng.uniformAt(3), 0.34419071652363753);
    for (int i = 0; i < 256; ++i) {
        const double u = rng.uniformAt(static_cast<std::uint64_t>(i));
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(BlockRng, InPlaceDrawsMatchRandomAccessAcrossRefills)
{
    // The sequential in-place stream is position-for-position the
    // counter-addressed stream, through every kernel's refill and
    // across block boundaries. 12 does not divide the block, so its
    // refills keep an unread tail; the odd sizes leave refills whose
    // length is not a whole number of vectors (516 and 1023 words),
    // and the next draw reads the second one to the end. Each
    // uniform's -64 ln u estimate travels with it: it is the one a
    // one-word fill at that position stores.
    const BlockRng ra(7);
    for (const auto &[isa, fill] : hostFills()) {
        const auto estimateAt = [&, fill = fill](std::uint64_t pos) {
            double u = 0.0, l = 0.0;
            fill(ra.seed(), pos, &u, &l, 1);
            return l;
        };
        for (const std::size_t count : {4u, 8u, 12u}) {
            BlockRng seq(7);
            std::uint64_t pos = 0;
            while (pos < 3 * BlockRng::kBlock + 100) {
                ASSERT_EQ(seq.cursor(), pos);
                const BlockRng::Draw draw = seq.next(count, fill);
                for (std::size_t i = 0; i < count; ++i) {
                    ASSERT_EQ(draw.u[i], ra.uniformAt(pos + i))
                        << "isa " << simd::isaName(isa) << " count "
                        << count << " pos " << pos + i;
                    ASSERT_EQ(draw.l[i], estimateAt(pos + i))
                        << "isa " << simd::isaName(isa) << " count "
                        << count << " pos " << pos + i;
                }
                pos += count;
            }
        }
        BlockRng seq(7);
        std::uint64_t pos = 0;
        for (std::size_t size : {1u, 7u, 64u, 1000u, 1024u, 513u, 3u,
                                 1023u, 5u, 1019u, 100u, 7u}) {
            ASSERT_EQ(seq.cursor(), pos);
            const BlockRng::Draw draw = seq.next(size, fill);
            for (std::size_t i = 0; i < size; ++i) {
                ASSERT_EQ(draw.u[i], ra.uniformAt(pos + i))
                    << "isa " << simd::isaName(isa) << " pos " << pos + i;
                ASSERT_EQ(draw.l[i], estimateAt(pos + i))
                    << "isa " << simd::isaName(isa) << " pos " << pos + i;
            }
            pos += size;
        }
    }
}

// ----------------------------------------------------------------------
// Lockstep kernel: determinism + cross-ISA bit-equality
// ----------------------------------------------------------------------

/** Compiled form + groups for a model (optionally chained pairs). */
SaCompiled
compiledWithGroups(const qubo::IsingModel &m, bool with_groups)
{
    SaCompiled c = SaCompiled::build(m, /*include_zero=*/false);
    if (with_groups) {
        std::vector<std::vector<int>> groups;
        for (int i = 0; i + 1 < c.numSpins(); i += 2)
            groups.push_back({i, i + 1});
        c.compileGroups(groups);
    }
    return c;
}

/**
 * randomModel(n, seed) cut into consecutive chains of 4..6 spins,
 * each a ferromagnetic path (on top of the random couplings), so
 * every group carries several in-chain couplers and block deltas
 * run the edge-correction terms.
 */
SaCompiled
chainedModel(int n, std::uint64_t seed)
{
    qubo::IsingModel m = randomModel(n, seed);
    std::vector<std::vector<int>> groups;
    for (int i = 0, len = 4; i + len <= n; i += len, len = 4 + i % 3) {
        groups.emplace_back();
        for (int k = i; k < i + len; ++k) {
            groups.back().push_back(k);
            if (k + 1 < i + len)
                m.addCoupling(k, k + 1, -1.5);
        }
    }
    SaCompiled c = SaCompiled::build(m, /*include_zero=*/false);
    c.compileGroups(groups);
    return c;
}

std::vector<SaResult>
runLockstep(const SaCompiled &c, const SaOptions &opts,
            std::uint64_t base, simd::Isa isa)
{
    return sampleLockstep(c, c.csr.h.data(), c.csr.w.data(), opts,
                          base, isa);
}

TEST(SaBatch, DeterministicAcrossCalls)
{
    const auto m = randomModel(24, 11);
    const auto c = compiledWithGroups(m, true);
    SaOptions opts;
    opts.sweeps = 64;
    opts.num_reads = 6;
    const auto a = runLockstep(c, opts, 123, simd::Isa::Scalar);
    const auto b = runLockstep(c, opts, 123, simd::Isa::Scalar);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].spins, b[r].spins);
        EXPECT_EQ(a[r].energy, b[r].energy);
        EXPECT_EQ(a[r].stats.flips_accepted,
                  b[r].stats.flips_accepted);
    }
    const auto other = runLockstep(c, opts, 124, simd::Isa::Scalar);
    bool any_diff = false;
    for (std::size_t r = 0; r < a.size(); ++r)
        any_diff |= a[r].spins != other[r].spins;
    EXPECT_TRUE(any_diff) << "different seeds produced equal runs";
}

TEST(SaBatch, ScalarAndVectorKernelsAreBitIdentical)
{
    // The property test of the determinism contract: through whole
    // accepted-flip sequences (sweeps + block moves + greedy), EVERY
    // vector tier the host can execute must reproduce the scalar
    // fallback bit for bit — spins, energies, per-lane counters.
    // 2 reads run one 4-lane group, 5 and 8 one 8-lane group; 12,
    // 16 and 24 reads split into two and three groups of 6 or 8
    // lanes. Chains of 4..6 spins exercise the in-chain edge
    // corrections.
    std::vector<simd::Isa> tiers = hostTiers();
    tiers.erase(tiers.begin()); // scalar, the reference
    if (tiers.empty())
        GTEST_SKIP() << "host has no vector kernel to compare";

    enum class Layout { None, Pairs, Chains };
    for (const simd::Isa active : tiers) {
        for (const Layout layout :
             {Layout::None, Layout::Pairs, Layout::Chains}) {
            for (const int reads : {2, 5, 8, 12, 16, 24}) {
                for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                    const int n = 20 + static_cast<int>(seed) * 3;
                    const SaCompiled c =
                        layout == Layout::Chains
                            ? chainedModel(n, 100 + seed)
                            : compiledWithGroups(
                                  randomModel(n, 100 + seed),
                                  layout == Layout::Pairs);
                    SaOptions opts;
                    opts.sweeps = 48;
                    opts.num_reads = reads;
                    const auto s =
                        runLockstep(c, opts, seed, simd::Isa::Scalar);
                    const auto v = runLockstep(c, opts, seed, active);
                    ASSERT_EQ(s.size(), v.size());
                    for (std::size_t r = 0; r < s.size(); ++r) {
                        ASSERT_EQ(s[r].spins, v[r].spins)
                            << "isa=" << simd::isaName(active)
                            << " layout=" << static_cast<int>(layout)
                            << " reads=" << reads << " seed=" << seed
                            << " read=" << r;
                        EXPECT_EQ(s[r].energy, v[r].energy);
                        EXPECT_EQ(s[r].stats.flips_attempted,
                                  v[r].stats.flips_attempted);
                        EXPECT_EQ(s[r].stats.flips_accepted,
                                  v[r].stats.flips_accepted);
                    }
                }
            }
        }
    }
}

TEST(SaBatch, NanDeltasDecideAlikeOnEveryKernel)
{
    // Fields of 1e308 overflow to +-inf in the lanes where a coupled
    // spin adds another 1e308, so a block move over two such spins
    // sums inf - inf = NaN in some lanes beside finite and infinite
    // deltas in others. The vector kernels must decide a NaN lane as
    // the scalar reference does (accept below the first bracket's
    // lower bound), so the spins stay bit-identical across ISAs.
    std::vector<simd::Isa> tiers = hostTiers();
    tiers.erase(tiers.begin());
    if (tiers.empty())
        GTEST_SKIP() << "host has no vector kernel to compare";
    qubo::IsingModel m(8);
    for (int i = 0; i < 8; ++i) {
        m.addField(i, i < 2 ? 1e308 : 0.1 * i);
        if (i + 1 < 8)
            m.addCoupling(i, i + 1, i % 2 == 0 ? 0.5 : -0.3);
    }
    m.addCoupling(0, 2, 1e308);
    m.addCoupling(1, 4, 1e308);
    const SaCompiled c = compiledWithGroups(m, true);
    SaOptions opts;
    opts.sweeps = 64;
    opts.num_reads = 8;
    const auto run = [&](simd::Isa isa) {
        return runLockstep(c, opts, 3, isa);
    };
    const auto s = run(simd::Isa::Scalar);
    for (const simd::Isa isa : tiers) {
        const auto v = run(isa);
        ASSERT_EQ(s.size(), v.size());
        for (std::size_t r = 0; r < s.size(); ++r) {
            EXPECT_EQ(s[r].spins, v[r].spins)
                << simd::isaName(isa) << " read " << r;
            EXPECT_EQ(s[r].stats.flips_accepted, v[r].stats.flips_accepted)
                << simd::isaName(isa) << " read " << r;
        }
    }
}

TEST(SaBatch, PaddedLanesDoNotChangeRealReads)
{
    // reads=5 pads to 8 lanes; the padding must be inert — the same
    // run at reads=8 shares the shared-stream decisions only when
    // the real-lane set matches, so instead check reads=5 twice and
    // that each real read is deterministic and internally consistent.
    const auto m = randomModel(18, 33);
    const auto c = compiledWithGroups(m, true);
    SaOptions opts;
    opts.sweeps = 32;
    opts.num_reads = 5;
    const auto out = runLockstep(c, opts, 9, simd::Isa::Scalar);
    ASSERT_EQ(out.size(), 5u);
    for (const auto &r : out) {
        EXPECT_EQ(r.stats.reads, 1u);
        EXPECT_LE(r.stats.flips_accepted, r.stats.flips_attempted);
        EXPECT_DOUBLE_EQ(r.energy, c.csr.energyWith(r.spins.data(),
                                                    c.csr.h.data(),
                                                    c.csr.w.data()));
    }
}

TEST(SaBatch, LockstepFindsFerromagneticGroundState)
{
    const int n = 24;
    qubo::IsingModel m(n);
    for (int i = 0; i + 1 < n; ++i)
        m.addCoupling(i, i + 1, -1.0);
    m.addField(0, -0.5);
    const auto c = compiledWithGroups(m, false);
    SaOptions opts;
    opts.sweeps = 256;
    opts.num_reads = 8;
    const auto out = runLockstep(c, opts, 5, simd::Isa::Scalar);
    const auto best = std::min_element(
        out.begin(), out.end(),
        [](const SaResult &a, const SaResult &b) {
            return a.energy < b.energy;
        });
    EXPECT_DOUBLE_EQ(best->energy, -(n - 1) - 0.5);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(best->spins[i], 1) << "spin " << i;
}

// ----------------------------------------------------------------------
// SaSampler integration: reads 1..N-1 run in lockstep
// ----------------------------------------------------------------------

TEST(SaBatch, SampleAllLockstepSortsAndAggregates)
{
    const auto m = randomModel(20, 55);
    SaSampler sampler(m);
    SaOptions opts;
    opts.sweeps = 64;
    opts.num_reads = 8;
    Rng rng(77);
    const auto all = sampler.sampleAll(opts, rng);
    ASSERT_EQ(all.size(), 8u);
    for (std::size_t r = 1; r < all.size(); ++r)
        EXPECT_LE(all[r - 1].energy, all[r].energy);
    EXPECT_EQ(all.front().stats.reads, 8u);
    EXPECT_EQ(all.front().stats.sweeps, 8u * 64u);
    EXPECT_GT(all.front().stats.flips_accepted, 0u);
    EXPECT_LE(all.front().stats.flips_accepted,
              all.front().stats.flips_attempted);
    // Auxiliary reads keep their per-read counters (read-aware
    // accounting merged post-race into the front result).
    for (std::size_t r = 1; r < all.size(); ++r) {
        EXPECT_EQ(all[r].stats.reads, 1u);
        EXPECT_EQ(all[r].stats.sweeps, 64u);
    }
}

/** True when @p all holds a read with exactly @p want's spins/energy. */
bool
containsRead(const std::vector<SaResult> &all, const SaResult &want)
{
    return std::any_of(all.begin(), all.end(), [&](const SaResult &r) {
        return r.spins == want.spins && r.energy == want.energy;
    });
}

TEST(SaBatch, ReadZeroIsTheSingleReadSample)
{
    // Read 0 of a multi-read sample is the frozen scalar num_reads=1
    // sample on the caller's stream: same spins, same energy, and the
    // caller's stream advances exactly as for one read.
    const auto m = randomModel(16, 60);
    SaSampler sampler(m);
    SaOptions single;
    single.sweeps = 48;
    SaOptions multi = single;
    multi.num_reads = 4;
    Rng a(5), b(5);
    const auto one = sampler.sample(single, a);
    const auto all = sampler.sampleAll(multi, b);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_TRUE(containsRead(all, one));
    EXPECT_EQ(a.next(), b.next());
}

TEST(SaBatch, ExtraReadsAreLockstepSeededFromPeekedDraw)
{
    // Reads 1..N-1 are exactly sampleLockstep over N-1 reads, seeded
    // with the caller stream's next output — peeked, not consumed.
    const auto m = randomModel(16, 61);
    SaSampler sampler(m);
    SaOptions opts;
    opts.sweeps = 32;
    opts.num_reads = 4;
    Rng rng(9);
    const std::uint64_t base = Rng(rng).next();
    const auto all = sampler.sampleAll(opts, rng);
    SaOptions extra = opts;
    extra.num_reads = 3;
    const SaCompiled &c = sampler.compiled();
    const auto want = sampleLockstep(c, c.csr.h.data(), c.csr.w.data(),
                                     extra, base, simd::Isa::Scalar);
    ASSERT_EQ(want.size(), 3u);
    for (const SaResult &r : want)
        EXPECT_TRUE(containsRead(all, r));
}

TEST(SaBatch, EnvOverrideToScalarKeepsResults)
{
    // HYQSAT_SIMD=scalar must not change sampled spins — the CPU
    // feature fallback is bit-identical by contract.
    const auto m = randomModel(20, 70);
    SaSampler sampler(m);
    SaOptions opts;
    opts.sweeps = 48;
    opts.num_reads = 8;
    Rng a(3);
    const auto fast = sampler.sampleAll(opts, a);
    ASSERT_EQ(setenv("HYQSAT_SIMD", "scalar", 1), 0);
    Rng b(3);
    const auto slow = sampler.sampleAll(opts, b);
    ASSERT_EQ(unsetenv("HYQSAT_SIMD"), 0);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t r = 0; r < fast.size(); ++r) {
        EXPECT_EQ(fast[r].spins, slow[r].spins);
        EXPECT_EQ(fast[r].energy, slow[r].energy);
    }
}

TEST(SaBatch, GroupMovesMatchWorkPoolSemantics)
{
    // Chained model through SaSampler::setGroups: the lockstep reads
    // must honor block moves (a frustrated chain pair mixes poorly
    // without them). Smoke: best-of-8 finds the ground state.
    const int n = 16;
    qubo::IsingModel m(n);
    for (int i = 0; i + 1 < n; ++i)
        m.addCoupling(i, i + 1, -2.0); // strong chains of 2
    m.addField(0, -0.25);
    SaSampler sampler(m);
    std::vector<std::vector<int>> groups;
    for (int i = 0; i + 1 < n; i += 2)
        groups.push_back({i, i + 1});
    sampler.setGroups(groups);
    SaOptions opts;
    opts.sweeps = 128;
    opts.num_reads = 8;
    Rng rng(21);
    const auto best = sampler.sample(opts, rng);
    EXPECT_DOUBLE_EQ(best.energy, -2.0 * (n - 1) - 0.25);
}

// ----------------------------------------------------------------------
// Annealer integration: Options::num_reads
// ----------------------------------------------------------------------

TEST(SaBatch, AnnealerReadsBatchSolvesAndCountsReads)
{
    const topology::Topology g(4, 4, 4);
    embed::HyQsatEmbedder embedder(g);
    const auto fx = embedder.embedQueue(
        {{sat::mkLit(0), sat::mkLit(1), sat::mkLit(2)}});

    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::noiseFree();
    opts.greedy_finish = true;
    opts.num_reads = 4;
    QuantumAnnealer qa(g, opts);

    const auto s = qa.sample(fx.problem, fx.embedding);
    EXPECT_DOUBLE_EQ(s.clause_energy, 0.0);
    const SaStats &stats = qa.lastRunStats();
    EXPECT_EQ(stats.reads, 4u);
    EXPECT_GT(stats.sweeps, 0u);
    EXPECT_EQ(stats.sweeps % stats.reads, 0u)
        << "per-read sweeps must merge post-race";
}

} // namespace
} // namespace hyqsat::anneal
