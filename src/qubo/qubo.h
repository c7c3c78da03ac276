/**
 * @file
 * Quadratic unconstrained binary optimization (QUBO) model and its
 * Ising twin. The QA objective of Eq. 2 in the paper is a QUBO over
 * SAT variables plus auxiliary variables:
 *
 *   H(x) = I + sum_i B_i x_i + sum_{i<j} J_ij x_i x_j,  x in {0,1}
 *
 * The Ising form substitutes x = (1+s)/2 with spins s in {-1,+1},
 * which is what the annealer hardware executes.
 */

#ifndef HYQSAT_QUBO_QUBO_H
#define HYQSAT_QUBO_QUBO_H

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hyqsat::qubo {

/** Key for an unordered pair of variable indices (i < j enforced). */
struct PairKey
{
    std::uint64_t packed = 0;

    PairKey() = default;

    PairKey(int i, int j)
    {
        if (i > j)
            std::swap(i, j);
        packed = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i))
                  << 32) |
                 static_cast<std::uint32_t>(j);
    }

    int first() const { return static_cast<int>(packed >> 32); }
    int second() const { return static_cast<int>(packed & 0xffffffff); }

    bool operator==(const PairKey &o) const { return packed == o.packed; }
};

struct PairKeyHash
{
    std::size_t
    operator()(const PairKey &k) const noexcept
    {
        return std::hash<std::uint64_t>()(k.packed * 0x9e3779b97f4a7c15ull);
    }
};

/** Sparse QUBO over binary variables 0..numVars()-1. */
class QuboModel
{
  public:
    QuboModel() = default;

    /** Construct with @p n variables (all coefficients zero). */
    explicit QuboModel(int n) : linear_(n, 0.0) {}

    /** @return the number of variables. */
    int numVars() const { return static_cast<int>(linear_.size()); }

    /** Grow the variable count to at least @p n. */
    void
    ensureVars(int n)
    {
        if (n > numVars())
            linear_.resize(n, 0.0);
    }

    /** Add @p c to the constant offset I. */
    void addOffset(double c) { offset_ += c; }

    /** Add @p c to the linear coefficient B_i. */
    void
    addLinear(int i, double c)
    {
        ensureVars(i + 1);
        linear_[i] += c;
    }

    /**
     * Add @p c to the quadratic coefficient J_ij. If i == j the term
     * folds into the linear coefficient (x*x == x for binaries).
     */
    void
    addQuadratic(int i, int j, double c)
    {
        if (i == j) {
            addLinear(i, c);
            return;
        }
        ensureVars(std::max(i, j) + 1);
        quadratic_[PairKey(i, j)] += c;
    }

    /** @return the constant offset. */
    double offset() const { return offset_; }

    /** @return linear coefficient B_i. */
    double linear(int i) const { return linear_[i]; }

    /** @return quadratic coefficient J_ij (0 if absent). */
    double
    quadratic(int i, int j) const
    {
        const auto it = quadratic_.find(PairKey(i, j));
        return it == quadratic_.end() ? 0.0 : it->second;
    }

    /** @return the sparse quadratic term map. */
    const std::unordered_map<PairKey, double, PairKeyHash> &
    quadraticTerms() const
    {
        return quadratic_;
    }

    /** @return all linear coefficients. */
    const std::vector<double> &linearTerms() const { return linear_; }

    /** Evaluate H at the given 0/1 assignment. */
    double energy(const std::vector<bool> &x) const;

    /** @return max over i of |B_i| (0 if no variables). */
    double maxAbsLinear() const;

    /** @return max over i<j of |J_ij| (0 if no terms). */
    double maxAbsQuadratic() const;

    /**
     * The normalization divisor of Eq. 6:
     * d* = max( max_i |B_i|/2, max_ij |J_ij| ).
     */
    double normalizationDivisor() const;

    /** Divide every coefficient (and the offset) by @p d. */
    void scale(double inv_d);

    /**
     * @return a copy normalized per Eq. 6 so that after division
     * B_i lies in [-2, 2] and J_ij in [-1, 1].
     */
    QuboModel normalized() const;

    /** Add every term of @p other scaled by @p alpha. */
    void addScaled(const QuboModel &other, double alpha);

  private:
    double offset_ = 0.0;
    std::vector<double> linear_;
    std::unordered_map<PairKey, double, PairKeyHash> quadratic_;
};

/** Ising model: H(s) = offset + sum h_i s_i + sum J_ij s_i s_j. */
class IsingModel
{
  public:
    IsingModel() = default;
    explicit IsingModel(int n) : h_(n, 0.0) {}

    int numSpins() const { return static_cast<int>(h_.size()); }

    void
    ensureSpins(int n)
    {
        if (n > numSpins())
            h_.resize(n, 0.0);
    }

    void addOffset(double c) { offset_ += c; }

    void
    addField(int i, double c)
    {
        ensureSpins(i + 1);
        h_[i] += c;
    }

    void
    addCoupling(int i, int j, double c)
    {
        if (i == j) {
            // s*s == 1: fold into the offset.
            offset_ += c;
            return;
        }
        ensureSpins(std::max(i, j) + 1);
        couplings_[PairKey(i, j)] += c;
    }

    double offset() const { return offset_; }
    double field(int i) const { return h_[i]; }

    double
    coupling(int i, int j) const
    {
        const auto it = couplings_.find(PairKey(i, j));
        return it == couplings_.end() ? 0.0 : it->second;
    }

    const std::vector<double> &fields() const { return h_; }

    const std::unordered_map<PairKey, double, PairKeyHash> &
    couplingTerms() const
    {
        return couplings_;
    }

    /** Evaluate at spins in {-1,+1}. */
    double energy(const std::vector<std::int8_t> &s) const;

  private:
    double offset_ = 0.0;
    std::vector<double> h_;
    std::unordered_map<PairKey, double, PairKeyHash> couplings_;
};

/**
 * Convert a QUBO to the equivalent Ising model via x = (1+s)/2.
 * Energies agree exactly: qubo.energy(x) == ising.energy(s).
 */
IsingModel quboToIsing(const QuboModel &q);

/** Map spins back to binaries: x_i = (1+s_i)/2. */
std::vector<bool> spinsToBits(const std::vector<std::int8_t> &s);

/** Map binaries to spins: s_i = 2 x_i - 1. */
std::vector<std::int8_t> bitsToSpins(const std::vector<bool> &x);

} // namespace hyqsat::qubo

#endif // HYQSAT_QUBO_QUBO_H
