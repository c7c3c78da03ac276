/**
 * @file
 * Fundamental SAT types shared by the whole library: variables,
 * literals and the three-valued lifted Boolean.
 *
 * The representation follows the MiniSat convention: a literal packs
 * a variable index and a sign into one integer (2*var + sign), which
 * makes literal-indexed arrays (watch lists, assignments) dense.
 */

#ifndef HYQSAT_SAT_TYPES_H
#define HYQSAT_SAT_TYPES_H

#include <cstdint>
#include <functional>
#include <vector>

namespace hyqsat::sat {

/** Variable index, 0-based. var_Undef marks "no variable". */
using Var = std::int32_t;

/** Sentinel for an absent variable. */
constexpr Var var_Undef = -1;

/** A literal: a variable with a sign. */
struct Lit
{
    /** Packed representation: 2 * var + sign (sign 1 == negated). */
    std::int32_t x = -2;

    constexpr Lit() = default;

    /** Build a literal over @p v; @p sign true means negated. */
    constexpr Lit(Var v, bool sign) : x(2 * v + static_cast<int>(sign)) {}

    /** @return the underlying variable. */
    constexpr Var var() const { return x >> 1; }

    /** @return true if the literal is negative. */
    constexpr bool sign() const { return x & 1; }

    /** @return the complementary literal. */
    constexpr Lit operator~() const { Lit p; p.x = x ^ 1; return p; }

    /** @return this literal with sign flipped iff @p b. */
    constexpr Lit
    operator^(bool b) const
    {
        Lit p;
        p.x = x ^ static_cast<int>(b);
        return p;
    }

    constexpr bool operator==(const Lit &o) const { return x == o.x; }
    constexpr bool operator!=(const Lit &o) const { return x != o.x; }
    constexpr bool operator<(const Lit &o) const { return x < o.x; }
};

/** Sentinel literal (no literal). */
constexpr Lit lit_Undef{};

/** @return a positive literal over @p v. */
constexpr Lit mkLit(Var v, bool sign = false) { return Lit(v, sign); }

/**
 * Largest DIMACS variable (and |literal|) a Lit can hold: variable
 * 2^30 - 1 packs to x = 2^31 - 1. Every entry point that reads
 * literals from outside input rejects anything beyond it.
 */
constexpr std::int32_t kMaxDimacsVar = std::int32_t{1} << 30;

/**
 * Build a literal from DIMACS convention: +v means variable v-1
 * positive, -v means variable v-1 negated. @p dimacs must be
 * nonzero with |dimacs| <= kMaxDimacsVar.
 */
constexpr Lit
fromDimacs(int dimacs)
{
    return dimacs > 0 ? mkLit(dimacs - 1, false) : mkLit(-dimacs - 1, true);
}

/** @return the DIMACS integer for @p p (1-based, sign = polarity). */
constexpr int
toDimacs(Lit p)
{
    return p.sign() ? -(p.var() + 1) : (p.var() + 1);
}

/** Lifted Boolean: true, false or undefined. */
class lbool
{
  public:
    constexpr lbool() : value_(2) {}
    constexpr explicit lbool(bool b) : value_(b ? 0 : 1) {}

    constexpr bool isTrue() const { return value_ == 0; }
    constexpr bool isFalse() const { return value_ == 1; }
    constexpr bool isUndef() const { return value_ == 2; }

    constexpr bool operator==(const lbool &o) const
    {
        return value_ == o.value_;
    }
    constexpr bool operator!=(const lbool &o) const
    {
        return value_ != o.value_;
    }

    /** @return the negation; undef stays undef. */
    constexpr lbool
    operator~() const
    {
        lbool r;
        r.value_ = value_ == 2 ? 2 : (value_ ^ 1);
        return r;
    }

    /** XOR with a plain bool; undef stays undef. */
    constexpr lbool
    operator^(bool b) const
    {
        lbool r;
        r.value_ = value_ == 2 ? 2 : (value_ ^ static_cast<uint8_t>(b));
        return r;
    }

  private:
    std::uint8_t value_;
};

constexpr lbool l_True = lbool(true);
constexpr lbool l_False = lbool(false);
constexpr lbool l_Undef = lbool();

/** A clause as a plain literal vector (used outside the solver core). */
using LitVec = std::vector<Lit>;

} // namespace hyqsat::sat

/** Hash support so literals can key unordered containers. */
template <>
struct std::hash<hyqsat::sat::Lit>
{
    std::size_t
    operator()(const hyqsat::sat::Lit &p) const noexcept
    {
        return std::hash<std::int32_t>()(p.x);
    }
};

#endif // HYQSAT_SAT_TYPES_H
