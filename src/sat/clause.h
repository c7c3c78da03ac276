/**
 * @file
 * Arena-allocated clause storage for the CDCL solver.
 *
 * Clauses live contiguously in one uint32 region and are referenced
 * by 32-bit offsets (CRef), halving pointer footprint and keeping
 * propagation cache-friendly. Layout per clause:
 *
 *   word 0: [ size : 27 (bits 5-31) | free : 3 (bits 2-4) |
 *             reloced : 1 (bit 1) | learnt : 1 (bit 0) ]
 *   word 1: float activity (learnt) or original clause index
 *   word 2..: literals
 *
 * Garbage collection is by copying live clauses to a fresh arena.
 */

#ifndef HYQSAT_SAT_CLAUSE_H
#define HYQSAT_SAT_CLAUSE_H

#include <algorithm>
#include <cstring>
#include <vector>

#include "sat/types.h"
#include "util/logging.h"

namespace hyqsat::sat {

/** Reference to a clause inside a ClauseArena. */
using CRef = std::uint32_t;

/** Sentinel for "no clause" (also used as the decision reason). */
constexpr CRef CRef_Undef = ~0u;

/** View of one clause stored in the arena. */
class Clause
{
  public:
    /** @return the number of literals. */
    int size() const { return static_cast<int>(header_ >> 5); }

    /** @return true for a learnt (conflict-derived) clause. */
    bool learnt() const { return header_ & 1; }

    /** Mark/query relocation during garbage collection. */
    bool reloced() const { return header_ & 2; }
    void setReloced() { header_ |= 2; }

    /** Access literal @p i. */
    Lit &operator[](int i) { return lits()[i]; }
    const Lit &operator[](int i) const { return lits()[i]; }

    Lit *begin() { return lits(); }
    Lit *end() { return lits() + size(); }
    const Lit *begin() const { return lits(); }
    const Lit *end() const { return lits() + size(); }

    /** Learnt-clause activity (bumped during conflict analysis). */
    float
    activity() const
    {
        float a;
        std::memcpy(&a, &extra_, sizeof(a));
        return a;
    }

    void
    setActivity(float a)
    {
        std::memcpy(&extra_, &a, sizeof(a));
    }

    /** Index of the original clause in the input Cnf (non-learnt). */
    std::uint32_t originalIndex() const { return extra_; }
    void setOriginalIndex(std::uint32_t idx) { extra_ = idx; }

    /** Relocation forwarding address (after setReloced()). */
    CRef relocation() const { return extra_; }
    void setRelocation(CRef to) { extra_ = to; }

    /** Shrink the clause to @p new_size literals (never grows). */
    void
    shrink(int new_size)
    {
        if (new_size > size())
            panic("Clause::shrink cannot grow a clause");
        header_ = (static_cast<std::uint32_t>(new_size) << 5) |
                  (header_ & 0x1f);
    }

  private:
    friend class ClauseArena;

    void
    init(int size, bool learnt)
    {
        header_ = (static_cast<std::uint32_t>(size) << 5) |
                  (learnt ? 1u : 0u);
        extra_ = 0;
    }

    Lit *lits() { return reinterpret_cast<Lit *>(this + 1); }
    const Lit *
    lits() const
    {
        return reinterpret_cast<const Lit *>(this + 1);
    }

    std::uint32_t header_;
    std::uint32_t extra_;
};

static_assert(sizeof(Clause) == 8, "Clause header must be two words");
static_assert(sizeof(Lit) == 4, "Lit must be one word");

/** Region allocator for clauses, addressed by CRef. */
class ClauseArena
{
  public:
    ClauseArena() { memory_.reserve(1 << 16); }

    /**
     * Hard capacity of the arena in words: a clause must start at a
     * CRef strictly below CRef_Undef and fit entirely inside the
     * 32-bit address space, so the region can never grow past
     * CRef_Undef words (the sentinel itself stays unaddressable).
     */
    static constexpr std::size_t kMaxWords =
        static_cast<std::size_t>(CRef_Undef);

    /**
     * Would allocating a clause of @p num_lits literals exceed the
     * CRef address space? Callers holding reclaimable garbage should
     * garbage-collect when this trips; alloc() panics instead of
     * handing out a colliding/truncated reference.
     */
    bool
    wouldExceed(std::size_t num_lits) const
    {
        return memory_.size() + 2 + num_lits > capacity_limit_;
    }

    /** Allocate a clause with the given literals. */
    CRef
    alloc(const LitVec &lits, bool learnt)
    {
        return alloc(lits.data(), lits.size(), learnt);
    }

    /** Allocate a clause with the @p n literals at @p lits. */
    CRef
    alloc(const Lit *lits, std::size_t n, bool learnt)
    {
        const std::size_t need = 2 + n;
        const std::size_t at = memory_.size();
        if (at + need > capacity_limit_) {
            panic("ClauseArena overflow: %zu + %zu words exceeds the "
                  "32-bit CRef address space (limit %zu words); the "
                  "learnt database outgrew the arena and garbage "
                  "collection could not reclaim enough space",
                  at, need, capacity_limit_);
        }
        // Explicit geometric growth: doubling keeps the amortized
        // copy cost constant and makes the reallocation policy
        // independent of the standard library's resize factor.
        if (memory_.capacity() < at + need) {
            memory_.reserve(
                std::min(capacity_limit_,
                         std::max(at + need, 2 * memory_.capacity())));
        }
        memory_.resize(at + need);
        auto &c = ref(static_cast<CRef>(at));
        c.init(static_cast<int>(n), learnt);
        // Lit is a trivially copyable 4-byte word (static_asserted
        // below), laid out back to back after the two header words.
        if (n > 0)
            std::memcpy(&memory_[at + 2], lits, n * sizeof(Lit));
        ++num_clauses_;
        return static_cast<CRef>(at);
    }

    /**
     * Lower the capacity limit (test shim): lets the overflow guard
     * be exercised without allocating 16 GiB. Clamped to kMaxWords.
     */
    void
    setCapacityLimitForTest(std::size_t words)
    {
        capacity_limit_ = std::min(words, kMaxWords);
    }

    /** Dereference a clause. */
    Clause &
    ref(CRef cr)
    {
        return *reinterpret_cast<Clause *>(&memory_[cr]);
    }

    const Clause &
    ref(CRef cr) const
    {
        return *reinterpret_cast<const Clause *>(&memory_[cr]);
    }

    /** Mark a clause as dead; space is reclaimed at the next gc. */
    void
    free(CRef cr)
    {
        wasted_ += 2 + static_cast<std::size_t>(ref(cr).size());
        --num_clauses_;
    }

    /** @return total words allocated. */
    std::size_t size() const { return memory_.size(); }

    /** @return words belonging to freed clauses. */
    std::size_t wasted() const { return wasted_; }

    /** @return the number of live clauses. */
    std::size_t numClauses() const { return num_clauses_; }

    /**
     * Relocate clause @p cr into @p to (copying if not already
     * moved) and update @p cr to the new reference.
     */
    void
    reloc(CRef &cr, ClauseArena &to)
    {
        Clause &c = ref(cr);
        if (c.reloced()) {
            cr = c.relocation();
            return;
        }
        // Straight from this arena into @p to: the two regions are
        // distinct, so growing @p to cannot move the source literals.
        const CRef moved =
            to.alloc(c.begin(), static_cast<std::size_t>(c.size()),
                     c.learnt());
        Clause &nc = to.ref(moved);
        if (c.learnt())
            nc.setActivity(c.activity());
        else
            nc.setOriginalIndex(c.originalIndex());
        c.setReloced();
        c.setRelocation(moved);
        cr = moved;
    }

    /** Swap contents with @p other (used to finish a gc cycle). */
    void
    swap(ClauseArena &other)
    {
        // capacity_limit_ intentionally stays with each arena: a gc
        // compaction arena is unconstrained while it fills, and the
        // solver's arena keeps its configured limit after the swap.
        memory_.swap(other.memory_);
        std::swap(wasted_, other.wasted_);
        std::swap(num_clauses_, other.num_clauses_);
    }

  private:
    std::vector<std::uint32_t> memory_;
    std::size_t wasted_ = 0;
    std::size_t num_clauses_ = 0;
    std::size_t capacity_limit_ = kMaxWords;
};

} // namespace hyqsat::sat

#endif // HYQSAT_SAT_CLAUSE_H
