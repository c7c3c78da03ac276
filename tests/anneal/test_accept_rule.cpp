/**
 * @file
 * The shared Metropolis accept rule (detail::acceptUphill): the
 * exp(-j/64) bracket table must decide exactly as `u < exp(-x)` for
 * every x and u. That holds when the runtime exp(-x) stays inside
 * the table's bracket for x, so these tests pin that invariant at
 * every table boundary (and a few ulps either side, where a
 * compile-time-folded table and the runtime libm can disagree), then
 * the decision at u = exp(-x), at the bounds and at their
 * neighbours, where a wrong bracket would show.
 *
 * The AVX2/AVX-512 lockstep kernels reach the same decisions through
 * the -64 ln u estimate BlockRng stores at refill (kDecideMargin):
 * the second half proves the estimate's bound for every fill the
 * host runs and checks each vector decide against acceptUphill() at
 * and around the edges of the margin band.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "anneal/sa_batch.h"
#include "anneal/sa_batch_kernels.h"
#include "tests/anneal/helpers.h"
#include "util/rng.h"
#include "util/simd.h"

namespace hyqsat::anneal::detail {
namespace {

/**
 * Check the bracket invariant at @p x and the decision for uniforms
 * at exp(-x), at the two bracket bounds and at their float
 * neighbours. Returns the number of mismatches (reported once each).
 */
int
probe(const double *table, double x)
{
    const double e = std::exp(-x);
    const int j = acceptBracket(x);
    const double hi = table[2 * j], lo = table[2 * j + 1];
    int bad = 0;
    if (!(lo <= e && e <= hi)) {
        ADD_FAILURE() << "exp(-" << x << ") = " << e
                      << " escapes its bracket [" << lo << ", " << hi
                      << "] (j = " << j << ")";
        ++bad;
    }
    std::vector<double> us;
    for (const double centre : {e, hi, lo}) {
        double down = centre, up = centre;
        us.push_back(centre);
        for (int k = 0; k < 4; ++k) {
            down = std::nextafter(down, 0.0);
            up = std::nextafter(up, 1.0);
            us.push_back(down);
            us.push_back(up);
        }
    }
    for (const double u : us) {
        if (!(u >= 0.0 && u < 1.0))
            continue; // outside the uniform's range
        if (acceptUphill(table, x, u) != (u < e)) {
            ADD_FAILURE() << "x = " << x << ", u = " << u
                          << ": table rule disagrees with exp";
            ++bad;
        }
    }
    return bad;
}

TEST(AcceptRule, BracketsAreTightAroundSixtyFourths)
{
    // Each pair brackets [j/64, (j+1)/64) with a few ulps of slack:
    // tight enough that the exact exp() stays a rare path.
    const double *table = acceptTable();
    for (int j = 0; j < kAcceptTableN; ++j) {
        const double top = std::exp(-static_cast<double>(j) / 64.0);
        const double bottom =
            std::exp(-static_cast<double>(j + 1) / 64.0);
        ASSERT_GT(table[2 * j], top) << "j = " << j;
        ASSERT_LE(table[2 * j], top * (1.0 + 1e-15)) << "j = " << j;
        ASSERT_LT(table[2 * j + 1], bottom) << "j = " << j;
        ASSERT_GE(table[2 * j + 1], bottom * (1.0 - 1e-15))
            << "j = " << j;
    }
    EXPECT_EQ(table[2 * kAcceptTableN + 1], 0.0);
}

TEST(AcceptRule, ExactAtEveryTableBoundary)
{
    const double *table = acceptTable();
    int bad = 0;
    for (int j = 0; j <= kAcceptTableN && bad < 20; ++j) {
        const double b = static_cast<double>(j) / 64.0;
        bad += probe(table, b);
        double below = b, above = b;
        for (int k = 0; k < 4; ++k) {
            below = std::nextafter(below, 0.0);
            above = std::nextafter(above, 1e9);
            if (j > 0)
                bad += probe(table, below);
            bad += probe(table, above);
        }
    }
    EXPECT_EQ(bad, 0);
}

TEST(AcceptRule, ExactAtRandomPoints)
{
    const double *table = acceptTable();
    Rng rng(0xACCE97ull);
    int bad = 0;
    for (int i = 0; i < 20000 && bad < 20; ++i) {
        // Mostly inside the table, some past its x = 32 clamp and
        // into exp's subnormal range.
        const double x = rng.uniform() * (i % 8 == 0 ? 800.0 : 33.0);
        bad += probe(table, x);
        const double u = rng.uniform();
        if (acceptUphill(table, x, u) != (u < std::exp(-x))) {
            ADD_FAILURE() << "x = " << x << ", u = " << u;
            ++bad;
        }
    }
    EXPECT_EQ(bad, 0);
}

TEST(AcceptRule, HugeUphillMovesNeverAccept)
{
    // The clamp pairs exp(-32) with 0.0, so no separate underflow
    // threshold is needed: once exp(-x) underflows to zero (and at
    // infinity) every uniform rejects.
    const double *table = acceptTable();
    for (const double x :
         {746.0, 1e4, 1e300, std::numeric_limits<double>::infinity()}) {
        ASSERT_EQ(std::exp(-x), 0.0) << x;
        EXPECT_FALSE(acceptUphill(table, x, 0.0)) << x;
        EXPECT_FALSE(acceptUphill(table, x, 1e-300)) << x;
        EXPECT_FALSE(acceptUphill(table, x, 0.5)) << x;
    }
}


// ----------------------------------------------------------------------
// The vector kernels' gather-free decide: L(u) ~ -64 ln u
// ----------------------------------------------------------------------

/** -64 ln u in long double: the reference L(u) is judged against. */
long double
exactMinusLog64(double u)
{
    return -64.0L * std::log(static_cast<long double>(u));
}

/** One estimator under test: the scalar fill's or a vector kernel's. */
struct LogEstimator
{
    const char *name;
    LogFill log;
};

std::vector<LogEstimator>
hostLogEstimators()
{
    std::vector<LogEstimator> out{
        {"scalar", [](const double *u, double *l, std::size_t n) {
             for (std::size_t k = 0; k < n; ++k)
                 l[k] = minusLog64(u[k]);
         }}};
    for (const testing::VectorDecide &v : testing::hostVectorDecides())
        out.push_back({simd::isaName(v.isa), v.log});
    return out;
}

/**
 * Largest |L(u) - (-64 ln u)| over @p us (padded to whole vectors
 * with 0.5), failing on a u = 0 that is not NaN or a u > 0 that is.
 */
long double
worstError(const LogEstimator &est, std::vector<double> us)
{
    while (us.size() % 8 != 0)
        us.push_back(0.5);
    std::vector<double> ls(us.size());
    est.log(us.data(), ls.data(), us.size());
    long double worst = 0.0L;
    for (std::size_t k = 0; k < us.size(); ++k) {
        if (us[k] == 0.0) {
            EXPECT_TRUE(std::isnan(ls[k])) << est.name;
            continue;
        }
        EXPECT_FALSE(std::isnan(ls[k])) << est.name << " u = " << us[k];
        const long double err =
            std::fabs(static_cast<long double>(ls[k]) -
                      exactMinusLog64(us[k]));
        worst = std::max(worst, err);
    }
    return worst;
}

TEST(AcceptRule, LogEstimateIsWithinHalfTheMargin)
{
    // L(u) = k (-64 ln 2) + Q(f) for u = (1 + f) 2^k: k and f are
    // exact, so L - (-64 ln u) is Q's error at f plus ~1e-12 of
    // rounding, the same in every binade. A grid over f with step
    // h = 2^-20 therefore proves the bound: between grid points the
    // error moves by at most h * max|Q' + 64 / (1 + f)| <= h * 128.
    constexpr double kHalf = kDecideMargin / 2.0;
    constexpr int kGridLog2 = 20;
    const long double slope_slack = 128.0L / (1 << kGridLog2);

    std::vector<double> grid;
    for (int i = 0; i < (1 << kGridLog2); ++i)
        grid.push_back(0.5 + std::ldexp(static_cast<double>(i),
                                        -kGridLog2 - 1));
    // Every binade's two ends, the smallest and largest nonzero
    // uniforms, and u = 0 (NaN: always the exact rule).
    std::vector<double> ends{0.0, 0x1.0p-53, 1.0 - 0x1.0p-53};
    for (int k = 1; k <= 53; ++k) {
        const double p = std::ldexp(1.0, -k);
        ends.push_back(p);
        ends.push_back(std::nextafter(2.0 * p, 0.0));
    }
    // A million uniforms of the lockstep stream itself.
    const BlockRng stream(0x1057ull);
    std::vector<double> draws(1000000);
    for (std::size_t k = 0; k < draws.size(); ++k)
        draws[k] = stream.uniformAt(k);

    for (const LogEstimator &est : hostLogEstimators()) {
        const long double on_grid = worstError(est, grid);
        EXPECT_LE(on_grid + slope_slack, kHalf) << est.name;
        EXPECT_LE(worstError(est, ends), kHalf) << est.name;
        EXPECT_LE(worstError(est, draws), kHalf) << est.name;
        // The documented figure (kLogPoly): Q is within 0.0039.
        EXPECT_LE(on_grid, 0.0039L) << est.name;
    }
}

TEST(AcceptRule, EveryFillStoresTheBoundedEstimate)
{
    // What the kernels actually read: each host fill's (u, L) pairs
    // over a stream stretch that is not a whole number of vectors.
    constexpr std::size_t kN = 100003;
    std::vector<double> u(kN), l(kN);
    for (const auto &[isa, fill] : testing::hostFills()) {
        fill(0xF111ull, 12345, u.data(), l.data(), kN);
        const BlockRng ref(0xF111ull);
        long double worst = 0.0L;
        for (std::size_t k = 0; k < kN; ++k) {
            ASSERT_EQ(u[k], ref.uniformAt(12345 + k));
            worst = std::max(worst,
                             std::fabs(static_cast<long double>(l[k]) -
                                       exactMinusLog64(u[k])));
        }
        EXPECT_LE(worst, kDecideMargin / 2.0) << simd::isaName(isa);
    }
}

TEST(AcceptRule, VectorDecideMatchesExactRuleAroundTheMargin)
{
    // Lanes with s = 64 beta dE placed at L* + o for the lane's own
    // estimate L*: inside the band (|o| <= delta/2) they must take
    // the exact rule, well outside it (|o| >= 1.5 delta) they must
    // not, and at every offset — the band edges at +-delta and their
    // float neighbours included — the decision is acceptUphill()'s.
    // exact[k] counts uphill lanes only (a NaN dE is not uphill).
    const std::vector<testing::VectorDecide> kernels =
        testing::hostVectorDecides();
    if (kernels.empty())
        GTEST_SKIP() << "host has no vector kernel";
    constexpr double kD = kDecideMargin;
    const double offsets[] = {-3 * kD, -1.5 * kD, -kD, -kD / 2, -kD / 4,
                              0.0,     kD / 4,    kD / 2, kD, 1.5 * kD,
                              3 * kD};
    const double *table = acceptTable();

    std::vector<double> us{0x1.0p-53, 1.0 - 0x1.0p-53, 0.5, 0.25,
                           std::nextafter(0.5, 0.0), 1e-3, 0.9999};
    const BlockRng stream(0xDEC1DEull);
    for (std::uint64_t k = 0; k < 4000; ++k)
        us.push_back(stream.uniformAt(k));

    for (const testing::VectorDecide &kernel : kernels) {
        for (const double beta : {1.0, 0.37, 7.5}) {
            std::vector<double> d, u, l, o_of;
            for (const double uk : us) {
                const double in[8] = {uk, uk, uk, uk, uk, uk, uk, uk};
                double out[8];
                kernel.log(in, out, 8);
                const double lk = out[0];
                for (const double o : offsets) {
                    // s at L* + o, and at the two float neighbours of
                    // x = s / 64 (the band edges are float compares).
                    const double x = (lk + o) / 64.0;
                    for (const double xk :
                         {std::nextafter(x, 0.0), x,
                          std::nextafter(x, 1e9)}) {
                        if (!(xk > 0.0))
                            continue;
                        d.push_back(xk / beta);
                        u.push_back(uk);
                        l.push_back(lk);
                        o_of.push_back(o);
                    }
                }
            }
            // Downhill and flat lanes accept outright; u = 0 (NaN
            // estimate) always takes the exact rule.
            const double nan = std::numeric_limits<double>::quiet_NaN();
            for (const double dk : {-1.0, 0.0, 0.3, 40.0}) {
                d.push_back(dk);
                u.push_back(0.0);
                l.push_back(nan);
                o_of.push_back(nan);
            }
            // A NaN dE decides as the scalar kernel clamps it, at
            // x = 0: around the first bracket's lower bound.
            for (const double uk : {0.5, std::nextafter(table[1], 0.0),
                                    table[1], 0.99}) {
                d.push_back(nan);
                u.push_back(uk);
                l.push_back(minusLog64(uk));
                o_of.push_back(nan);
            }
            while (d.size() % kernel.width != 0) {
                d.push_back(-1.0);
                u.push_back(0.5);
                l.push_back(64.0 * std::log(2.0));
                o_of.push_back(std::numeric_limits<double>::quiet_NaN());
            }
            std::vector<std::uint64_t> accept(d.size()), exact(d.size());
            kernel.decide(beta, d.data(), u.data(), l.data(), d.size(),
                          accept.data(), exact.data());
            int bad = 0;
            for (std::size_t k = 0; k < d.size() && bad < 20; ++k) {
                const bool want =
                    std::isnan(d[k])
                        ? u[k] < table[1]
                        : !(d[k] > 0.0) ||
                              acceptUphill(table, beta * d[k], u[k]);
                if ((accept[k] != 0) != want || (accept[k] != 0 &&
                                                 accept[k] != ~0ull)) {
                    ADD_FAILURE() << simd::isaName(kernel.isa)
                                  << " beta " << beta << " dE " << d[k]
                                  << " u " << u[k] << " L " << l[k];
                    ++bad;
                }
                const double o = o_of[k];
                const bool must_exact =
                    (u[k] == 0.0 && d[k] > 0.0) || std::fabs(o) <= kD / 2;
                const bool must_not =
                    !(d[k] > 0.0) || std::fabs(o) >= 1.5 * kD;
                if ((must_exact && exact[k] != 1) ||
                    (must_not && exact[k] != 0)) {
                    ADD_FAILURE() << simd::isaName(kernel.isa)
                                  << " exact count " << exact[k]
                                  << " at offset " << o << " (u " << u[k]
                                  << ")";
                    ++bad;
                }
            }
            EXPECT_EQ(bad, 0);
        }
    }
}

} // namespace
} // namespace hyqsat::anneal::detail
