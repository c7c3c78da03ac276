/**
 * @file
 * Seed-golden determinism tests for the annealing hot-loop rewrite.
 *
 * The pinned table below was captured from the pre-CSR sampler (the
 * implementation now frozen in sa_reference.h) on dyadic fixtures —
 * every coefficient a multiple of 0.25 — so all arithmetic is exact
 * and "identical" means identical: spin vector hash, energy, and the
 * caller Rng's post-sample stream position. Any change to proposal
 * order, acceptance rule, RNG consumption (draw iff dE > 0), or the
 * greedy finish shows up here as a hard failure.
 *
 * On top of the pinned table: bit-identity against the reference
 * sampler on continuous (non-dyadic) models — exercising the
 * boundary-band recompute guard — and the multi-read contracts
 * (num_reads=1 equivalence, best-of-N monotonicity, caller-stream
 * invariance under extra reads).
 *
 * ChainGolden pins the single-read chain on the models it actually
 * runs on: the frontend's first embedded queue of a GC and of a CFA
 * instance, with the qubit chains as block-move groups and one
 * control-noise draw on the coefficients. Every row fixes the spin
 * digest, the exact energy bits, the work counters and the caller
 * Rng's position afterwards. The table was captured from the chain
 * before its state moved to double spins and packed in-chain edges;
 * do not regenerate it from the current sampler.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "anneal/annealer.h"
#include "anneal/sa_reference.h"
#include "anneal/sa_sampler.h"
#include "gen/circuit.h"
#include "qubo/encoder.h"
#include "qubo/qubo.h"
#include "sat/cnf.h"
#include "sat/types.h"
#include "tests/anneal/helpers.h"
#include "util/rng.h"

namespace hyqsat::anneal {
namespace {

std::uint64_t
fnvSpins(const std::vector<std::int8_t> &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::int8_t v : s) {
        h ^= static_cast<std::uint8_t>(v);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Dyadic random Ising model (all coefficients multiples of 0.25, so
 * every energy/delta is exact in binary floating point); optionally
 * chains of 3 registered as groups, with ferromagnetic -1.0 chain
 * couplings, matching the embedded-problem shape.
 */
qubo::IsingModel
dyadicModel(int n, int edges, std::uint64_t seed,
            std::vector<std::vector<int>> *groups_out)
{
    Rng rng(seed);
    qubo::IsingModel m(n);
    m.addOffset(static_cast<double>(rng.range(-8, 8)) * 0.25);
    for (int i = 0; i < n; ++i)
        m.addField(i, static_cast<double>(rng.range(-8, 8)) * 0.25);
    for (int e = 0; e < edges; ++e) {
        const int i = static_cast<int>(rng.below(n));
        const int j = static_cast<int>(rng.below(n));
        if (i == j)
            continue;
        m.addCoupling(i, j,
                      static_cast<double>(rng.range(-4, 4)) * 0.25);
    }
    if (groups_out) {
        for (int k = 0; 3 * k + 2 < n && k < n / 5; ++k) {
            const int a = 3 * k, b = 3 * k + 1, c = 3 * k + 2;
            groups_out->push_back({a, b, c});
            m.addCoupling(a, b, -1.0);
            m.addCoupling(b, c, -1.0);
        }
    }
    return m;
}

/** Continuous-coefficient model: exercises the boundary-band guard. */
qubo::IsingModel
continuousModel(int n, int edges, std::uint64_t seed,
                std::vector<std::vector<int>> *groups_out)
{
    Rng rng(seed);
    qubo::IsingModel m(n);
    m.addOffset(rng.uniform() * 2.0 - 1.0);
    for (int i = 0; i < n; ++i)
        m.addField(i, rng.uniform() * 2.0 - 1.0);
    for (int e = 0; e < edges; ++e) {
        const int i = static_cast<int>(rng.below(n));
        const int j = static_cast<int>(rng.below(n));
        if (i == j)
            continue;
        m.addCoupling(i, j, rng.uniform() - 0.5);
    }
    if (groups_out) {
        for (int k = 0; 3 * k + 2 < n && k < n / 5; ++k) {
            const int a = 3 * k, b = 3 * k + 1, c = 3 * k + 2;
            groups_out->push_back({a, b, c});
            m.addCoupling(a, b, -1.0);
            m.addCoupling(b, c, -1.0);
        }
    }
    return m;
}

struct GoldenRow
{
    int cfg;
    int rep;
    std::uint64_t spins_fnv;
    double energy;
    std::uint64_t rng_next; ///< rng.next() right after the sample
};

struct GoldenCfg
{
    int n;
    int edges;
    std::uint64_t mseed;
    bool groups;
    int sweeps;
    bool greedy;
};

constexpr GoldenCfg kGoldenCfgs[] = {
    {24, 72, 0xD1AD1C01ull, false, 64, false},
    {24, 72, 0xD1AD1C01ull, false, 64, true},
    {30, 90, 0xD1AD1C02ull, true, 64, false},
    {30, 90, 0xD1AD1C02ull, true, 64, true},
};

/**
 * Captured from the pre-rewrite sampler (commit before the CSR hot
 * loop landed) with tools run against the seed build — do NOT
 * regenerate from the current sampler; the whole point is that these
 * survive the rewrite unchanged.
 */
constexpr GoldenRow kGoldenRows[] = {
    {0, 0, 0x1a7d6b7e3a6968a9ull, -36.75, 0x0e3f8b6514208a6full},
    {0, 1, 0xb17c093732c7a9b1ull, -35.25, 0xd3c0cd9d40bb3d97ull},
    {0, 2, 0x1c6e13740133f839ull, -37.25, 0x2e70d137e6097aacull},
    {1, 0, 0x1a7d6b7e3a6968a9ull, -36.75, 0x0e3f8b6514208a6full},
    {1, 1, 0xb17c093732c7a9b1ull, -35.25, 0xd3c0cd9d40bb3d97ull},
    {1, 2, 0x1c6e13740133f839ull, -37.25, 0x2e70d137e6097aacull},
    {2, 0, 0x1bf508e2632ebf95ull, -49, 0x79340aafa8dfafd4ull},
    {2, 1, 0x1bf508e2632ebf95ull, -49, 0x61f09762ab037511ull},
    {2, 2, 0x1bf508e2632ebf95ull, -49, 0x60ab423546757ceaull},
    {3, 0, 0x1bf508e2632ebf95ull, -49, 0x79340aafa8dfafd4ull},
    {3, 1, 0x1bf508e2632ebf95ull, -49, 0x61f09762ab037511ull},
    {3, 2, 0x1bf508e2632ebf95ull, -49, 0x60ab423546757ceaull},
};

Rng
repRng(int rep)
{
    return Rng(0xA11CEull + static_cast<std::uint64_t>(rep) * 7919);
}

TEST(SaGolden, PinnedSeedTableSurvivesRewrite)
{
    for (const GoldenRow &row : kGoldenRows) {
        const GoldenCfg &cfg = kGoldenCfgs[row.cfg];
        std::vector<std::vector<int>> groups;
        const auto model = dyadicModel(cfg.n, cfg.edges, cfg.mseed,
                                       cfg.groups ? &groups : nullptr);
        SaSampler sampler(model);
        if (cfg.groups)
            sampler.setGroups(groups);
        SaOptions opts;
        opts.sweeps = cfg.sweeps;
        opts.greedy_finish = cfg.greedy;

        Rng rng = repRng(row.rep);
        const SaResult r = sampler.sample(opts, rng);
        EXPECT_EQ(fnvSpins(r.spins), row.spins_fnv)
            << "cfg " << row.cfg << " rep " << row.rep;
        // Dyadic coefficients: the running energy must be EXACT.
        EXPECT_EQ(r.energy, row.energy)
            << "cfg " << row.cfg << " rep " << row.rep;
        EXPECT_EQ(rng.next(), row.rng_next)
            << "cfg " << row.cfg << " rep " << row.rep
            << " (RNG stream position diverged)";
    }
}

TEST(SaGolden, BitIdenticalToReferenceOnContinuousModels)
{
    // Continuous coefficients make the incremental local fields drift
    // from fresh sums in the last ulps; the boundary-band guard must
    // keep every accept/reject decision (and so the spins and the
    // draw stream) identical to the reference all the same.
    for (std::uint64_t mseed = 1; mseed <= 6; ++mseed) {
        const bool with_groups = (mseed % 2) == 0;
        std::vector<std::vector<int>> groups;
        const auto model =
            continuousModel(26, 80, 0xC0FFEEull + mseed * 131,
                            with_groups ? &groups : nullptr);
        SaSampler sampler(model);
        SaReferenceSampler reference(model);
        if (with_groups) {
            sampler.setGroups(groups);
            reference.setGroups(groups);
        }
        for (const bool greedy : {false, true}) {
            SaOptions opts;
            opts.sweeps = 48;
            opts.greedy_finish = greedy;
            Rng rng_new(0xBEEF00ull + mseed);
            Rng rng_ref(0xBEEF00ull + mseed);
            const SaResult got = sampler.sample(opts, rng_new);
            const SaResult want = reference.sample(opts, rng_ref);
            ASSERT_EQ(got.spins, want.spins)
                << "mseed " << mseed << " greedy " << greedy;
            EXPECT_EQ(rng_new.next(), rng_ref.next())
                << "mseed " << mseed << " greedy " << greedy;
            // The running energy is accumulated delta by delta, the
            // reference re-scans at the end: on continuous models
            // they agree to rounding only (the dyadic golden table
            // pins the exact-arithmetic case).
            EXPECT_NEAR(got.energy, want.energy, 1e-9);
            EXPECT_NEAR(got.energy, sampler.energy(got.spins), 1e-9);
        }
    }
}

TEST(SaGolden, StatsCountWork)
{
    const auto model = dyadicModel(20, 60, 0xD1AD1C05ull, nullptr);
    SaSampler sampler(model);
    SaOptions opts;
    opts.sweeps = 32;
    Rng rng(7);
    const SaResult r = sampler.sample(opts, rng);
    EXPECT_EQ(r.stats.sweeps, 32u);
    EXPECT_EQ(r.stats.reads, 1u);
    // Every sweep proposes every spin at least once.
    EXPECT_GE(r.stats.flips_attempted, 32u * 20u);
    EXPECT_GT(r.stats.flips_accepted, 0u);
    EXPECT_LE(r.stats.flips_accepted, r.stats.flips_attempted);
}

// ----------------------------------------------------------------------
// Multi-read contracts
// ----------------------------------------------------------------------

/** Random 3-SAT clauses encoded to the logical Ising model. */
qubo::IsingModel
encodedSatModel(int vars, int clauses, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<sat::LitVec> cls;
    for (int c = 0; c < clauses; ++c) {
        sat::LitVec cl;
        while (cl.size() < 3) {
            const auto v = static_cast<sat::Var>(rng.below(vars));
            bool dup = false;
            for (const sat::Lit &l : cl)
                dup = dup || l.var() == v;
            if (!dup)
                cl.push_back(sat::mkLit(v, rng.chance(0.5)));
        }
        cls.push_back(cl);
    }
    return quboToIsing(qubo::encodeClauses(cls).normalized);
}

TEST(SaGolden, CallerStreamInvariantUnderExtraReads)
{
    const auto model = encodedSatModel(12, 50, 0xF1608ull);
    SaSampler sampler(model);
    SaOptions single;
    single.sweeps = 48;
    SaOptions multi = single;
    multi.num_reads = 8;

    Rng rng_single(0x5111ull);
    Rng rng_multi(0x5111ull);
    const SaResult one = sampler.sample(single, rng_single);
    const auto all = sampler.sampleAll(multi, rng_multi);
    ASSERT_EQ(all.size(), 8u);

    // Read 0 runs on the caller's stream and the stream is copied
    // back: afterwards the caller cannot tell how many reads ran.
    EXPECT_EQ(rng_single.next(), rng_multi.next());

    // Best-first order, with the front aggregating all reads' work.
    for (std::size_t k = 1; k < all.size(); ++k)
        EXPECT_LE(all[k - 1].energy, all[k].energy);
    EXPECT_EQ(all.front().stats.reads, 8u);
    EXPECT_GE(all.front().stats.flips_attempted,
              8 * one.stats.flips_attempted / 2);
}

TEST(SaGolden, BestOfNIsMonotone)
{
    // Because read 0 IS the single-read sample, best-of-8 can never
    // return a worse energy than num_reads=1 from the same Rng state.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto model =
            encodedSatModel(14, 58, 0xF1608ull + seed * 977);
        SaSampler sampler(model);
        SaOptions single;
        single.sweeps = 40;
        SaOptions multi = single;
        multi.num_reads = 8;

        Rng rng_single(0xAB0ull + seed);
        Rng rng_multi(0xAB0ull + seed);
        const SaResult one = sampler.sample(single, rng_single);
        const SaResult best = sampler.sample(multi, rng_multi);
        EXPECT_LE(best.energy, one.energy) << "seed " << seed;
        // And every returned sample is self-consistent (running
        // energy vs re-scan: rounding only).
        EXPECT_NEAR(best.energy, sampler.energy(best.spins), 1e-9);
    }
}

TEST(SaGolden, CallerStreamInvariantUnderGroupedExtraReads)
{
    // The caller-stream contract on a chained (block-move) model and
    // read counts on both sides of the 8-lane group boundary: 1 extra
    // read, 8 (one full group) and 16 (two groups).
    std::vector<std::vector<int>> groups;
    const auto model = continuousModel(30, 90, 0xC4A1Bull, &groups);
    SaSampler sampler(model);
    sampler.setGroups(groups);
    SaOptions single;
    single.sweeps = 40;
    for (const int reads : {2, 9, 17}) {
        SaOptions multi = single;
        multi.num_reads = reads;
        Rng rng_single(0x5112ull + reads);
        Rng rng_multi(0x5112ull + reads);
        const SaResult one = sampler.sample(single, rng_single);
        const auto all = sampler.sampleAll(multi, rng_multi);
        ASSERT_EQ(all.size(), static_cast<std::size_t>(reads));
        EXPECT_EQ(rng_single.next(), rng_multi.next())
            << reads << " reads";
        for (std::size_t k = 1; k < all.size(); ++k)
            EXPECT_LE(all[k - 1].energy, all[k].energy);
        EXPECT_EQ(all.front().stats.reads,
                  static_cast<std::uint64_t>(reads));
        EXPECT_EQ(all.front().stats.read_groups,
                  static_cast<std::uint64_t>((reads - 1 + 7) / 8));
        EXPECT_EQ(all.front().stats.sweeps,
                  static_cast<std::uint64_t>(reads) * 40u);
        // Read 0 is the single-read sample, bit for bit.
        bool found = false;
        for (const SaResult &r : all)
            found |= r.spins == one.spins && r.energy == one.energy;
        EXPECT_TRUE(found) << reads << " reads";
    }
}

TEST(SaGolden, BestOfNIsMonotoneAcrossGroups)
{
    for (const int reads : {2, 9, 17}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            std::vector<std::vector<int>> groups;
            const auto model =
                continuousModel(27, 80, 0xB0A7ull + seed * 131, &groups);
            SaSampler sampler(model);
            sampler.setGroups(groups);
            SaOptions single;
            single.sweeps = 32;
            SaOptions multi = single;
            multi.num_reads = reads;

            Rng rng_single(0xAB1ull + seed);
            Rng rng_multi(0xAB1ull + seed);
            const SaResult one = sampler.sample(single, rng_single);
            const SaResult best = sampler.sample(multi, rng_multi);
            EXPECT_LE(best.energy, one.energy)
                << reads << " reads, seed " << seed;
            EXPECT_NEAR(best.energy, sampler.energy(best.spins), 1e-9);
        }
    }
}

TEST(SaGolden, NumReadsOneIsIdenticalThroughSampleAll)
{
    const auto model = dyadicModel(24, 72, 0xD1AD1C01ull, nullptr);
    SaSampler sampler(model);
    SaOptions opts;
    opts.sweeps = 64;
    Rng a(42), b(42);
    const SaResult direct = sampler.sample(opts, a);
    const auto all = sampler.sampleAll(opts, b);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(direct.spins, all.front().spins);
    EXPECT_EQ(direct.energy, all.front().energy);
    EXPECT_EQ(a.next(), b.next());
}

// ----------------------------------------------------------------------
// Chain golden: the single-read chain on frontend-embedded models
// ----------------------------------------------------------------------

/** The frontend's first embedded queue of a GC or a CFA instance. */
std::shared_ptr<const embed::QueueEmbedResult>
chainQueue(bool cfa, const topology::Topology &graph)
{
    if (cfa) {
        Rng gen(0xCFA0ull);
        const gen::Circuit circuit = gen::randomCircuit(10, 40, 4, gen);
        return testing::frontendQueue(
            graph, sat::toThreeSat(gen::faultMiter(circuit, -1, false)));
    }
    Rng gen(0x6C00ull);
    return testing::frontendQueue(graph,
                                  gen::flatColoringCnf(50, 120, 3, gen));
}

struct ChainRow
{
    bool cfa;
    int reads;
    bool greedy;
    std::uint64_t spins_fnv;
    std::uint64_t energy_bits;
    std::uint64_t flips_attempted;
    std::uint64_t flips_accepted;
    std::uint64_t sweeps;
    std::uint64_t rng_next; ///< rng.next() right after the sample
};

constexpr ChainRow kChainRows[] = {
    {false, 1, false, 0xe39a9f7bddd4525eull, 0xc087d6696d4e2140ull, 446976,
     179404, 512, 0x852b67d202c189f4ull},
    {false, 1, true, 0x063398fdf270be48ull, 0xc087deff1949b327ull, 448722,
     179413, 512, 0x852b67d202c189f4ull},
    {false, 9, false, 0x23ee416f422eb0aeull, 0xc087e354ae6a44b5ull, 4022784,
     1619338, 4608, 0xdcb213c646f8f6d2ull},
    {false, 9, true, 0xa357d21141bf0aa0ull, 0xc087e7c54d9dc59full, 4038498,
     1619405, 4608, 0xdcb213c646f8f6d2ull},
    {true, 1, false, 0x5e194942d20e3c44ull, 0xc07d4deaeb3cf456ull, 311808,
     130611, 512, 0x77846c5a2df31962ull},
    {true, 1, true, 0x86f84f4dce0bade8ull, 0xc07d5f0258e52e3eull, 313026,
     130616, 512, 0x77846c5a2df31962ull},
    {true, 9, false, 0x2136c4e791e16cc8ull, 0xc07d60c6eff65c37ull, 2806272,
     1173812, 4608, 0x0c0b62d94bc1f972ull},
    {true, 9, true, 0x3ee674b29c6e3702ull, 0xc07d66009f85c32bull, 2822106,
     1173843, 4608, 0x0c0b62d94bc1f972ull},
};

void
checkChainRows(bool cfa)
{
    const topology::Topology graph =
        topology::Topology::dwave2000q();
    const auto queue = chainQueue(cfa, graph);
    ASSERT_TRUE(queue);
    ASSERT_GT(queue->problem.numNodes(), 0);
    const NoiseModel device = NoiseModel::dwave2000q();
    for (const ChainRow &row : kChainRows) {
        if (row.cfa != cfa)
            continue;
        // A fresh annealer per row: the same control-noise draw.
        QuantumAnnealer qa(graph, {});
        const SaSampler sampler =
            qa.programSampler(queue->problem, queue->embedding);
        ASSERT_FALSE(sampler.compiled().groups.empty());
        SaOptions opts;
        opts.sweeps = device.sweeps;
        opts.beta_end = device.beta_final;
        opts.greedy_finish = row.greedy;
        opts.num_reads = row.reads;
        Rng rng(0xC4A1D00ull + static_cast<std::uint64_t>(row.reads));
        const SaResult r = sampler.sample(opts, rng);
        const std::uint64_t next = rng.next();
        SCOPED_TRACE(::testing::Message()
                     << (cfa ? "CFA" : "GC") << " reads " << row.reads
                     << " greedy " << row.greedy);
        EXPECT_EQ(fnvSpins(r.spins), row.spins_fnv);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.energy), row.energy_bits);
        EXPECT_EQ(r.stats.flips_attempted, row.flips_attempted);
        EXPECT_EQ(r.stats.flips_accepted, row.flips_accepted);
        EXPECT_EQ(r.stats.sweeps, row.sweeps);
        EXPECT_EQ(next, row.rng_next) << "RNG stream position diverged";
    }
}

TEST(ChainGolden, GraphColoringQueue) { checkChainRows(false); }

TEST(ChainGolden, CircuitFaultQueue) { checkChainRows(true); }

TEST(ChainGolden, ScatteredGroupsMatchReference)
{
    // Groups that are not one run of consecutive indices (strided,
    // descending, out of order) walk several runs per block move; the
    // chain must still be the reference sampler, bit for bit.
    const std::vector<std::vector<int>> groups = {
        {0, 10, 20}, {1, 11, 21}, {2, 3, 12, 13}, {29, 28, 27},
        {9, 7, 8},   {4, 24, 5, 25}};
    for (std::uint64_t mseed = 1; mseed <= 3; ++mseed) {
        qubo::IsingModel model =
            continuousModel(30, 90, 0x5CA77E4ull + mseed, nullptr);
        for (const auto &g : groups)
            for (std::size_t k = 0; k + 1 < g.size(); ++k)
                model.addCoupling(g[k], g[k + 1], -1.0);
        SaSampler sampler(model);
        SaReferenceSampler reference(model);
        sampler.setGroups(groups);
        reference.setGroups(groups);
        for (const bool greedy : {false, true}) {
            SaOptions opts;
            opts.sweeps = 48;
            opts.greedy_finish = greedy;
            Rng rng_new(0x5CA7ull + mseed);
            Rng rng_ref(0x5CA7ull + mseed);
            const SaResult got = sampler.sample(opts, rng_new);
            const SaResult want = reference.sample(opts, rng_ref);
            ASSERT_EQ(got.spins, want.spins)
                << "mseed " << mseed << " greedy " << greedy;
            EXPECT_EQ(rng_new.next(), rng_ref.next())
                << "mseed " << mseed << " greedy " << greedy;
            EXPECT_NEAR(got.energy, want.energy, 1e-9);
        }
    }
}

} // namespace
} // namespace hyqsat::anneal
