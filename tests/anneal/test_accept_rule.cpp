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
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "anneal/sa_batch_kernels.h"
#include "util/rng.h"

namespace hyqsat::anneal::detail {
namespace {

/** Table index acceptUphill brackets @p x with. */
int
bracketIndex(double x)
{
    const double scaled = x * kAcceptTableStep;
    return scaled >= static_cast<double>(kAcceptTableN)
               ? kAcceptTableN
               : static_cast<int>(scaled);
}

/**
 * Check the bracket invariant at @p x and the decision for uniforms
 * at exp(-x), at the two bracket bounds and at their float
 * neighbours. Returns the number of mismatches (reported once each).
 */
int
probe(const double *table, double x)
{
    const double e = std::exp(-x);
    const int j = bracketIndex(x);
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

} // namespace
} // namespace hyqsat::anneal::detail
