/**
 * @file
 * Runtime SIMD dispatch for the lockstep annealer kernels.
 *
 * Binaries stay portable: every kernel has a scalar fallback that is
 * always compiled, and the vector variants live in separate
 * translation units built with the matching -m flags. At run time
 * activeIsa() picks the widest instruction set the CPU supports —
 * overridable with the HYQSAT_SIMD environment variable ("scalar",
 * "avx2", "avx512") for golden tests and debugging.
 * Requesting an ISA the host cannot execute degrades to Scalar,
 * never crashes.
 *
 * The vector kernels are written to be bit-identical to the scalar
 * fallback (same per-lane operation order, no FMA contraction), so
 * the dispatch choice never changes results — only throughput.
 */

#ifndef HYQSAT_UTIL_SIMD_H
#define HYQSAT_UTIL_SIMD_H

#include <cstdlib>
#include <optional>
#include <string_view>

namespace hyqsat::simd {

/** Instruction sets of the batch kernels, narrowest first. */
enum class Isa
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Canonical lowercase name of an ISA. */
inline const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    case Isa::Avx512:
        return "avx512";
    }
    return "scalar";
}

/** Parse "scalar"/"avx2"/"avx512" (exact, lowercase). */
inline std::optional<Isa>
parseIsa(std::string_view name)
{
    if (name == "scalar")
        return Isa::Scalar;
    if (name == "avx2")
        return Isa::Avx2;
    if (name == "avx512")
        return Isa::Avx512;
    return std::nullopt;
}

/** Widest ISA the executing CPU supports (no env override). */
inline Isa
detectIsa()
{
#if defined(__x86_64__) || defined(__i386__)
    // The 512-bit kernel needs DQ (double-precision logic ops) on
    // top of the foundation subset.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
        return Isa::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Isa::Avx2;
    return Isa::Scalar;
#else
    return Isa::Scalar;
#endif
}

/**
 * Clamp a requested ISA against what the host can run: a request the
 * host cannot execute degrades to Scalar (requesting Scalar on a
 * wide host is honored — that is how the golden tests pin the
 * fallback), and an AVX-512 host honors an explicit "avx2" request
 * (the narrower x86 tier is a strict subset).
 */
inline Isa
resolveIsa(Isa requested, Isa detected)
{
    if (requested == Isa::Scalar || requested == detected)
        return requested;
    if (requested == Isa::Avx2 && detected == Isa::Avx512)
        return requested;
    return Isa::Scalar;
}

/**
 * The ISA batch kernels should run with: HYQSAT_SIMD when set to a
 * valid name (clamped against the host), else the detected best.
 */
inline Isa
activeIsa()
{
    const char *env = std::getenv("HYQSAT_SIMD");
    const Isa detected = detectIsa();
    if (env != nullptr) {
        if (const auto requested = parseIsa(env))
            return resolveIsa(*requested, detected);
    }
    return detected;
}

} // namespace hyqsat::simd

#endif // HYQSAT_UTIL_SIMD_H
