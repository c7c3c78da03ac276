/**
 * @file
 * The two-level parallel lockstep scheduler (PR 10): group
 * partition/seed purity, cross-thread-count bit-identity, and the
 * sampler-level aggregation of group stats. These tests run under
 * the TSan CI leg (suite name SaParallel) — several drive the same
 * WorkPool from concurrent callers on purpose.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "anneal/sa_batch.h"
#include "anneal/sa_sampler.h"
#include "anneal/work_pool.h"
#include "util/simd.h"

namespace hyqsat::anneal {
namespace {

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

std::vector<SaResult>
runLockstep(const SaCompiled &c, const SaOptions &opts,
            std::uint64_t base, WorkPool *pool)
{
    return sampleLockstep(c, c.csr.h.data(), c.csr.w.data(), opts,
                          base, simd::Isa::Scalar, pool);
}

void
expectIdentical(const std::vector<SaResult> &a,
                const std::vector<SaResult> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t r = 0; r < a.size(); ++r) {
        ASSERT_EQ(a[r].spins, b[r].spins) << what << " read " << r;
        EXPECT_EQ(a[r].energy, b[r].energy) << what << " read " << r;
        EXPECT_EQ(a[r].stats.flips_attempted,
                  b[r].stats.flips_attempted)
            << what << " read " << r;
        EXPECT_EQ(a[r].stats.flips_accepted,
                  b[r].stats.flips_accepted)
            << what << " read " << r;
    }
}

TEST(SaParallel, GroupCountIsPureFunctionOfOptions)
{
    // Auto (0): groups of up to 8 lanes.
    EXPECT_EQ(lockstepGroupCount(1, 0), 1);
    EXPECT_EQ(lockstepGroupCount(8, 0), 1);
    EXPECT_EQ(lockstepGroupCount(9, 0), 2);
    EXPECT_EQ(lockstepGroupCount(16, 0), 2);
    EXPECT_EQ(lockstepGroupCount(17, 0), 3);
    EXPECT_EQ(lockstepGroupCount(64, 0), 8);
    // Explicit counts clamp to [1, reads].
    EXPECT_EQ(lockstepGroupCount(20, 1), 1);
    EXPECT_EQ(lockstepGroupCount(20, 4), 4);
    EXPECT_EQ(lockstepGroupCount(20, 99), 20);
    EXPECT_EQ(lockstepGroupCount(0, 0), 1);
}

TEST(SaParallel, GroupSeedsDecorrelatedAndAnchored)
{
    // Group 0 runs from the caller's base verbatim (the PR 9
    // contract anchor); later groups are splitmix-finalized and
    // pairwise distinct.
    const std::uint64_t base = 0x9e3779b97f4a7c15ull;
    EXPECT_EQ(lockstepGroupSeed(base, 0), base);
    std::set<std::uint64_t> seen;
    for (int g = 0; g < 64; ++g)
        seen.insert(lockstepGroupSeed(base, g));
    EXPECT_EQ(seen.size(), 64u);
    // Different bases map to different group-seed families.
    EXPECT_NE(lockstepGroupSeed(1, 3), lockstepGroupSeed(2, 3));
}

TEST(SaParallel, BitIdenticalAcrossThreadCounts)
{
    // The cross-thread-count determinism contract: the same
    // (seed, model, options) must produce byte-identical reads
    // whether the groups run serially (pool with 0 workers), on a
    // small pool, on a big pool, or on the shared pool.
    const auto m = randomModel(26, 77);
    const auto c = SaCompiled::build(m, /*include_zero=*/false);
    SaOptions opts;
    opts.sweeps = 48;
    opts.num_reads = 20; // auto: 3 groups
    WorkPool serial(0);
    WorkPool two(2);
    WorkPool wide(8);
    const auto a = runLockstep(c, opts, 42, &serial);
    const auto b = runLockstep(c, opts, 42, &two);
    const auto d = runLockstep(c, opts, 42, &wide);
    const auto e = runLockstep(c, opts, 42, nullptr); // shared pool
    ASSERT_EQ(a.size(), 20u);
    expectIdentical(a, b, "serial vs 2 threads");
    expectIdentical(a, d, "serial vs 8 threads");
    expectIdentical(a, e, "serial vs shared pool");
}

TEST(SaParallel, AutoSingleGroupMatchesForcedSingleGroup)
{
    // reads <= 8 means auto sizing yields one group, whose seed is
    // the base verbatim — so the parallel dispatcher must reproduce
    // the PR 9 single-group path bit for bit.
    const auto m = randomModel(22, 5);
    const auto c = SaCompiled::build(m, /*include_zero=*/false);
    SaOptions opts;
    opts.sweeps = 64;
    opts.num_reads = 8;
    SaOptions forced = opts;
    forced.reads_groups = 1;
    const auto a = runLockstep(c, opts, 7, nullptr);
    const auto b = runLockstep(c, forced, 7, nullptr);
    expectIdentical(a, b, "auto vs forced single group");
}

TEST(SaParallel, GroupPartitionIsBalancedAndDeterministic)
{
    // Explicit group counts shift which seed each read runs under,
    // so results differ from the single-group run — but remain a
    // deterministic function of the options.
    const auto m = randomModel(24, 13);
    const auto c = SaCompiled::build(m, /*include_zero=*/false);
    SaOptions grouped;
    grouped.sweeps = 48;
    grouped.num_reads = 12;
    grouped.reads_groups = 3;
    SaOptions single = grouped;
    single.reads_groups = 1;
    WorkPool pool(3);
    const auto a = runLockstep(c, grouped, 99, &pool);
    const auto b = runLockstep(c, grouped, 99, &pool);
    const auto s = runLockstep(c, single, 99, &pool);
    expectIdentical(a, b, "grouped repeat");
    ASSERT_EQ(a.size(), s.size());
    // A different partition means different lane counts and group
    // seeds, so the runs explore differently (they are distinct,
    // equally valid deterministic samplers).
    bool differs = false;
    for (std::size_t r = 0; r < a.size(); ++r)
        differs |= a[r].spins != s[r].spins;
    EXPECT_TRUE(differs)
        << "group partition should select different streams";
    // Every read still reports exact energies for its spins.
    for (const auto &r : a)
        EXPECT_DOUBLE_EQ(r.energy,
                         c.csr.energyWith(r.spins.data(),
                                          c.csr.h.data(),
                                          c.csr.w.data()));
}

TEST(SaParallel, SamplerAggregatesGroupStats)
{
    // Through SaSampler::sampleAll the extra reads must report their
    // group count and aggregate per-read work into the front result.
    const auto m = randomModel(20, 3);
    SaSampler sampler(m);
    SaOptions opts;
    opts.sweeps = 32;
    opts.num_reads = 20;
    opts.reads_groups = 0; // auto: 19 extra reads in 3 groups
    Rng rng(11);
    const auto all = sampler.sampleAll(opts, rng);
    ASSERT_EQ(all.size(), 20u);
    EXPECT_EQ(all.front().stats.reads, 20u);
    EXPECT_EQ(all.front().stats.read_groups, 3u);
    EXPECT_GT(all.front().stats.flips_attempted, 0u);
    // Best-first ordering holds across group boundaries.
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LE(all[i - 1].energy, all[i].energy);
}

TEST(SaParallel, ConcurrentCallersShareThePool)
{
    // Two threads drive sampleLockstep through the same dedicated
    // pool at once (the portfolio shape: many workers, one shared
    // pool). Results must match the serial reference; TSan guards
    // the pool's internals.
    const auto m = randomModel(24, 21);
    const auto c = SaCompiled::build(m, /*include_zero=*/false);
    SaOptions opts;
    opts.sweeps = 32;
    opts.num_reads = 16; // auto: 2 groups per caller
    WorkPool serial(0);
    const auto ref1 = runLockstep(c, opts, 1, &serial);
    const auto ref2 = runLockstep(c, opts, 2, &serial);

    WorkPool pool(4);
    std::vector<SaResult> out1, out2;
    std::thread t1([&] { out1 = runLockstep(c, opts, 1, &pool); });
    std::thread t2([&] { out2 = runLockstep(c, opts, 2, &pool); });
    t1.join();
    t2.join();
    expectIdentical(ref1, out1, "caller 1");
    expectIdentical(ref2, out2, "caller 2");
}

} // namespace
} // namespace hyqsat::anneal
