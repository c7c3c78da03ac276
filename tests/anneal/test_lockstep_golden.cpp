/**
 * @file
 * Lockstep golden: the multi-read lockstep kernels must reproduce the
 * captured output bit for bit. Each case runs sampleLockstep on every
 * ISA tier the host executes (scalar always) and folds every read's
 * spins, energy bits, flips_accepted and flips_attempted into one
 * FNV-1a digest; every tier must hit the same constant. A last case
 * pins a whole QuantumAnnealer sample at num_reads = 16 on a
 * frontend-embedded, noisy problem: node bits, physical-energy bits
 * and the annealer's RNG stream position afterwards.
 *
 * The digests were captured from the lockstep kernels before their
 * proposal loops went register-resident; any change to the output,
 * the uniform stream or the counters shows up here. Do not regenerate
 * them from the current kernels.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "anneal/annealer.h"
#include "anneal/sa_batch.h"
#include "tests/anneal/helpers.h"

namespace hyqsat::anneal {
namespace {

using testing::frontendProblem;
using testing::hostTiers;

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (x >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Fields plus ~40% dense random couplings, no groups. */
SaCompiled
plainModel()
{
    const int n = 26;
    qubo::IsingModel m(n);
    Rng setup(0x91a1);
    for (int i = 0; i < n; ++i)
        m.addField(i, setup.gaussian(0, 1));
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (setup.chance(0.4))
                m.addCoupling(i, j, setup.gaussian(0, 1));
    return SaCompiled::build(m, /*include_zero=*/false);
}

/**
 * Six chains of 4..7 spins registered as block-move groups. Each
 * chain is a ferromagnetic path plus one closing in-chain coupler
 * (so every group carries several edge-correction terms), and random
 * couplers join spins of different chains.
 */
SaCompiled
chainedModel()
{
    const int sizes[] = {4, 5, 6, 7, 4, 5};
    std::vector<std::vector<int>> groups;
    int n = 0;
    for (int len : sizes) {
        std::vector<int> chain;
        for (int k = 0; k < len; ++k)
            chain.push_back(n++);
        groups.push_back(chain);
    }
    qubo::IsingModel m(n);
    Rng setup(0xc4a1);
    for (int i = 0; i < n; ++i)
        m.addField(i, setup.gaussian(0, 0.5));
    for (const auto &chain : groups) {
        for (std::size_t k = 0; k + 1 < chain.size(); ++k)
            m.addCoupling(chain[k], chain[k + 1],
                          -1.0 - setup.uniform());
        m.addCoupling(chain.front(), chain.back(), -0.5);
    }
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (setup.chance(0.15))
                m.addCoupling(i, j, setup.gaussian(0, 1));
    SaCompiled c = SaCompiled::build(m, /*include_zero=*/false);
    c.compileGroups(groups);
    return c;
}

std::uint64_t
digestReads(const std::vector<SaResult> &reads)
{
    Digest d;
    d.add(static_cast<std::uint64_t>(reads.size()));
    for (const SaResult &r : reads) {
        for (std::int8_t s : r.spins)
            d.add(static_cast<std::uint64_t>(s > 0));
        d.add(r.energy);
        d.add(r.stats.flips_accepted);
        d.add(r.stats.flips_attempted);
    }
    return d.value();
}

struct Case
{
    int reads;
    std::uint64_t plain;
    std::uint64_t chained;
};

// 1..8 reads are one group (the 8-read row pins that its seed is the
// base verbatim); 12 reads are two groups of 6, 16 two groups of 8.
constexpr Case kCases[] = {
    {1, 0x1d48ac74599e3488ull, 0x7429bae848512e68ull},
    {3, 0xf9def5967555dd15ull, 0x5276f27d44300552ull},
    {7, 0xfd00351957fdcbfaull, 0xb9b197191c39026full},
    {8, 0xbf16c20c7ded5dbeull, 0x22be5e1f372a7ddaull},
    {12, 0xc6acf76f29ceed83ull, 0x8d5a951adfaedea0ull},
    {16, 0x1cac6511b34f85ddull, 0x72d216e7b01385c3ull},
};

void
checkModel(const SaCompiled &c, bool chained)
{
    for (const Case &k : kCases) {
        SaOptions opts;
        opts.sweeps = 40;
        opts.num_reads = k.reads;
        const std::uint64_t want = chained ? k.chained : k.plain;
        for (const simd::Isa isa : hostTiers()) {
            const auto reads =
                sampleLockstep(c, c.csr.h.data(), c.csr.w.data(),
                               opts, 0x5eed + k.reads, isa);
            EXPECT_EQ(digestReads(reads), want)
                << "isa=" << simd::isaName(isa) << " reads=" << k.reads;
        }
    }
}

TEST(LockstepGolden, PlainModel) { checkModel(plainModel(), false); }

TEST(LockstepGolden, ChainedModelWithInChainCouplers)
{
    checkModel(chainedModel(), true);
}

TEST(LockstepGolden, NoisyAnnealerSampleAtSixteenReads)
{
    const topology::Topology graph(16, 16, 4);
    const auto fx = frontendProblem(graph);
    ASSERT_TRUE(fx);
    ASSERT_GT(fx->problem.numNodes(), 0);

    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::dwave2000q();
    opts.num_reads = 16;
    QuantumAnnealer qa(graph, opts);
    Digest d;
    for (int shot = 0; shot < 2; ++shot) {
        const AnnealSample s = qa.sample(fx->problem, fx->embedding);
        for (bool b : s.node_bits)
            d.add(static_cast<std::uint64_t>(b));
        d.add(s.physical_energy);
        EXPECT_EQ(qa.lastRunStats().reads, 16u);
    }
    EXPECT_EQ(d.value(), 0x3031122556b310d0ull);
    EXPECT_EQ(qa.rng().next(), 0x96e4ecbf1f686fbdull)
        << "RNG stream position diverged";
}

} // namespace
} // namespace hyqsat::anneal
