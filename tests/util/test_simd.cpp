#include <gtest/gtest.h>

#include <cstdlib>

#include "util/simd.h"

namespace hyqsat::simd {
namespace {

TEST(Simd, NamesRoundTrip)
{
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
        const auto parsed = parseIsa(isaName(isa));
        ASSERT_TRUE(parsed.has_value()) << isaName(isa);
        EXPECT_EQ(*parsed, isa);
    }
}

TEST(Simd, ParseRejectsUnknownNames)
{
    EXPECT_FALSE(parseIsa("").has_value());
    EXPECT_FALSE(parseIsa("AVX2").has_value());
    EXPECT_FALSE(parseIsa("sse2").has_value());
    EXPECT_FALSE(parseIsa("avx512f").has_value());
    EXPECT_FALSE(parseIsa("neon").has_value());
}

TEST(Simd, DetectIsSelfConsistent)
{
    // Whatever the host supports, detection is stable and resolves
    // to itself.
    const Isa detected = detectIsa();
    EXPECT_EQ(detectIsa(), detected);
    EXPECT_EQ(resolveIsa(detected, detected), detected);
}

TEST(Simd, ResolveClampsUnsupportedRequestsToScalar)
{
    // Requesting a tier the host lacks must degrade to the scalar
    // fallback, never crash or pass through.
    EXPECT_EQ(resolveIsa(Isa::Avx2, Isa::Scalar), Isa::Scalar);
    EXPECT_EQ(resolveIsa(Isa::Avx512, Isa::Scalar), Isa::Scalar);
    EXPECT_EQ(resolveIsa(Isa::Avx512, Isa::Avx2), Isa::Scalar);
    // Scalar is always honored — that is how goldens pin the
    // fallback on wide hosts.
    EXPECT_EQ(resolveIsa(Isa::Scalar, Isa::Avx2), Isa::Scalar);
    EXPECT_EQ(resolveIsa(Isa::Scalar, Isa::Avx512), Isa::Scalar);
}

TEST(Simd, ResolveHonorsNarrowerX86TierOnAvx512Host)
{
    // avx2 is a strict subset of an avx512 host's capabilities, so
    // an explicit HYQSAT_SIMD=avx2 must pin the AVX2 kernel there —
    // that is how CI exercises the mid tier on wide runners.
    EXPECT_EQ(resolveIsa(Isa::Avx2, Isa::Avx512), Isa::Avx2);
    EXPECT_EQ(resolveIsa(Isa::Avx512, Isa::Avx512), Isa::Avx512);
}

TEST(Simd, EnvOverrideForcesScalar)
{
    ASSERT_EQ(setenv("HYQSAT_SIMD", "scalar", 1), 0);
    EXPECT_EQ(activeIsa(), Isa::Scalar);
    ASSERT_EQ(unsetenv("HYQSAT_SIMD"), 0);
    EXPECT_EQ(activeIsa(), detectIsa());
}

TEST(Simd, EnvOverrideIgnoresGarbage)
{
    ASSERT_EQ(setenv("HYQSAT_SIMD", "turbo9000", 1), 0);
    EXPECT_EQ(activeIsa(), detectIsa());
    ASSERT_EQ(unsetenv("HYQSAT_SIMD"), 0);
}

TEST(Simd, EnvOverrideClampsToHost)
{
    // Every named request goes through resolveIsa, so asking for an
    // ISA the host lacks degrades to scalar instead of crashing later
    // in the kernel dispatch. An AVX-512 host runs every tier, so
    // there the wider-than-host case has nothing to request.
    const Isa detected = detectIsa();
    for (const Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
        ASSERT_EQ(setenv("HYQSAT_SIMD", isaName(isa), 1), 0);
        EXPECT_EQ(activeIsa(), resolveIsa(isa, detected)) << isaName(isa);
        if (isa > detected) {
            EXPECT_EQ(activeIsa(), Isa::Scalar) << isaName(isa);
        }
    }
    ASSERT_EQ(unsetenv("HYQSAT_SIMD"), 0);
}

} // namespace
} // namespace hyqsat::simd
