#include "sat/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hyqsat::sat {

namespace {

/** Luby sequence value (finite-subsequence restart scheme). */
double
luby(double y, int x)
{
    int size, seq;
    for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x = x % size;
    }
    return std::pow(y, seq);
}

constexpr double kActivityRescale = 1e100;
constexpr double kClauseActivityRescale = 1e20;

} // namespace

Solver::Solver(const SolverOptions &opts)
    : opts_(opts), rng_(opts.seed), order_heap_(scores_),
      chb_alpha_(opts.chb_alpha), conflict_budget_(opts.conflict_budget),
      decision_budget_(opts.decision_budget),
      track_sat_(opts.incremental_clause_tracking &&
                 opts.instrument_clauses)
{
}

Var
Solver::newVar()
{
    const Var v = numVars();
    watches_.emplace_back();
    watches_.emplace_back();
    values_.push_back(l_Undef);
    values_.push_back(l_Undef);
    vardata_.push_back({});
    polarity_.push_back(!opts_.default_phase);
    user_phase_.push_back(l_Undef);
    seen_.push_back(0);
    scores_.push_back(0.0);
    chb_last_conflict_.push_back(0);
    if (track_sat_) {
        lit_occurs_.emplace_back();
        lit_occurs_.emplace_back();
    }
    insertVarOrder(v);
    return v;
}

void
Solver::insertVarOrder(Var v)
{
    if (!order_heap_.inHeap(v) && value(v).isUndef())
        order_heap_.insert(v);
}

bool
Solver::addClause(LitVec lits, int original_index)
{
    // Root-level only: the value()-based simplification below and
    // the tracked sat-counts are sound against a level-0 trail, not
    // against in-search assignments (incremental callers add clauses
    // between solves, where cancelUntil(0) has already run).
    if (decisionLevel() != 0)
        panic("addClause outside the root level");
    if (original_index >= 0 && opts_.instrument_clauses) {
        growOriginals(static_cast<std::size_t>(original_index) + 1);
        if (track_sat_)
            untrackOriginal(original_index);
        source_[original_index] = lits;
    }
    for (Lit p : lits) {
        while (p.var() >= numVars())
            newVar();
    }
    if (original_index >= 0 && track_sat_)
        trackOriginal(original_index);
    if (!ok_)
        return false;
    if (!simplifyAgainstRoot(lits))
        return true; // clause already satisfied / tautology

    if (lits.empty()) {
        ok_ = false;
        return false;
    }
    if (lits.size() == 1) {
        assign(lits[0], CRef_Undef);
        ok_ = (propagate() == CRef_Undef);
        return ok_;
    }

    CRef cr = arena_.alloc(lits, false);
    arena_.ref(cr).setOriginalIndex(
        original_index >= 0 ? static_cast<std::uint32_t>(original_index)
                            : ~0u);
    originals_.push_back(cr);
    attachClause(cr);
    return true;
}

bool
Solver::importClause(LitVec lits)
{
    if (!ok_)
        return false;
    if (decisionLevel() != 0)
        panic("importClause outside the root level");

    for (const Lit p : lits)
        if (p.var() >= numVars())
            return true; // foreign variable: not our formula, drop
    // Same root-level simplification as addClause, against the
    // level-0 trail (root facts learned since the exporter saw the
    // clause may already satisfy or shrink it).
    if (!simplifyAgainstRoot(lits))
        return true; // already satisfied / tautology

    ++stats_.imported_clauses;
    if (lits.empty()) {
        ok_ = false; // the shared clause refutes the formula
        return false;
    }
    if (lits.size() == 1) {
        assign(lits[0], CRef_Undef);
        ok_ = (propagate() == CRef_Undef);
        return ok_;
    }

    // Into the learnt database (not originals_): imports are
    // redundant, so the reduction policy may drop them again.
    if (arena_.wouldExceed(lits.size()) && arena_.wasted() > 0)
        garbageCollect();
    const CRef cr = arena_.alloc(lits, true);
    learnts_.push_back(cr);
    attachClause(cr);
    bumpClauseActivity(arena_.ref(cr));
    return true;
}

bool
Solver::loadCnf(const Cnf &cnf)
{
    while (numVars() < cnf.numVars())
        newVar();
    if (opts_.instrument_clauses)
        growOriginals(static_cast<std::size_t>(cnf.numClauses()));
    for (int i = 0; i < cnf.numClauses(); ++i) {
        if (!addClause(cnf.clause(i), i))
            return false;
    }
    return true;
}

void
Solver::growOriginals(std::size_t count)
{
    if (source_.size() >= count)
        return;
    source_.resize(count);
    visits_prop_.resize(count, 0);
    visits_confl_.resize(count, 0);
    paper_score_.resize(count, 1.0);
}

bool
Solver::simplifyAgainstRoot(LitVec &lits) const
{
    // Sort, then drop duplicates and root-false literals in place;
    // a root-true literal or a complementary pair satisfies it.
    std::sort(lits.begin(), lits.end());
    std::size_t kept = 0;
    Lit prev = lit_Undef;
    for (const Lit p : lits) {
        if (value(p).isTrue() || p == ~prev)
            return false;
        if (!value(p).isFalse() && p != prev)
            lits[kept++] = prev = p;
    }
    lits.resize(kept);
    return true;
}

void
Solver::attachClause(CRef cr)
{
    const Clause &c = arena_.ref(cr);
    if (c.size() < 2)
        panic("attaching a clause with fewer than two literals");
    watches_[(~c[0]).x].push_back({cr, c[1]});
    watches_[(~c[1]).x].push_back({cr, c[0]});
}

void
Solver::detachClause(CRef cr)
{
    const Clause &c = arena_.ref(cr);
    auto strip = [&](Lit w) {
        auto &ws = watches_[(~w).x];
        for (std::size_t i = 0; i < ws.size(); ++i) {
            if (ws[i].cref == cr) {
                ws[i] = ws.back();
                ws.pop_back();
                return;
            }
        }
        panic("detachClause: watcher not found");
    };
    strip(c[0]);
    strip(c[1]);
}

void
Solver::assign(Lit p, CRef from)
{
    // Callers establish that p is unassigned.
    values_[p.x] = l_True;
    values_[(~p).x] = l_False;
    vardata_[p.var()] = {from, decisionLevel()};
    trail_.push_back(p);
    if (track_sat_) {
        // p just became true: every tracked clause containing the
        // literal p gains one satisfied literal.
        for (const int ci : lit_occurs_[p.x])
            if (sat_count_[ci]++ == 0)
                unsatRemove(ci);
    }
}

CRef
Solver::propagate()
{
    CRef confl = CRef_Undef;
    const bool instrument = opts_.instrument_clauses;
    while (qhead_ < static_cast<int>(trail_.size())) {
        const Lit p = trail_[qhead_++];
        const Lit false_lit = ~p;
        ++stats_.propagations;
        std::vector<Watcher> &ws = watches_[p.x];
        Watcher *i = ws.data();
        Watcher *j = i;
        Watcher *const end = i + ws.size();
        while (i != end) {
            // Try the blocker first to avoid touching the clause.
            if (value(i->blocker).isTrue()) {
                *j++ = *i++;
                continue;
            }
            const Watcher w = *i++;
            Clause &c = arena_.ref(w.cref);
            if (instrument && !c.learnt() && c.originalIndex() != ~0u)
                ++visits_prop_[c.originalIndex()];

            // Normalize so the false literal is in position 1.
            Lit *const lits = c.begin();
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }

            // 0th watch true: keep watching via it as blocker.
            const Lit first = lits[0];
            const Watcher keep{w.cref, first};
            if (first != w.blocker && value(first).isTrue()) {
                *j++ = keep;
                continue;
            }

            // Look for a new literal to watch; the watch list it
            // joins is never ws (its literal is not false).
            Lit *k = lits + 2;
            Lit *const lits_end = c.end();
            while (k != lits_end && value(*k).isFalse())
                ++k;
            if (k != lits_end) {
                lits[1] = *k;
                *k = false_lit;
                watches_[(~lits[1]).x].push_back(keep);
                continue;
            }

            // Clause is unit or conflicting.
            *j++ = keep;
            if (value(first).isFalse()) {
                confl = w.cref;
                qhead_ = static_cast<int>(trail_.size());
                while (i != end)
                    *j++ = *i++;
            } else {
                assign(first, w.cref);
            }
        }
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        if (confl != CRef_Undef)
            break;
    }
    return confl;
}

void
Solver::noteClauseInConflict(const Clause &c)
{
    if (!opts_.instrument_clauses || c.learnt() || c.originalIndex() == ~0u)
        return;
    ++visits_confl_[c.originalIndex()];
    paper_score_[c.originalIndex()] += 1.0;
}

void
Solver::analyze(CRef confl, LitVec &out_learnt, int &out_btlevel)
{
    int path_count = 0;
    Lit p = lit_Undef;
    out_learnt.push_back(lit_Undef); // reserve slot for the UIP
    int index = static_cast<int>(trail_.size()) - 1;

    do {
        Clause &c = arena_.ref(confl);
        if (c.learnt())
            bumpClauseActivity(c);
        noteClauseInConflict(c);

        const int start = (p == lit_Undef) ? 0 : 1;
        for (int k = start; k < c.size(); ++k) {
            const Lit q = c[k];
            const Var v = q.var();
            if (seen_[v] || vardata_[v].level == 0)
                continue;
            seen_[v] = 1;
            if (opts_.branching == Branching::CHB)
                chbUpdate(v, true);
            else
                bumpVarActivity(v, var_inc_);
            if (vardata_[v].level >= decisionLevel())
                ++path_count;
            else
                out_learnt.push_back(q);
        }

        // Walk backwards to the next marked trail literal.
        while (!seen_[trail_[index].var()])
            --index;
        p = trail_[index];
        --index;
        confl = vardata_[p.var()].reason;
        seen_[p.var()] = 0;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Conflict-clause minimization.
    analyze_clear_ = out_learnt;
    std::size_t kept = 1;
    if (opts_.ccmin) {
        std::uint32_t abstract = 0;
        for (std::size_t i = 1; i < out_learnt.size(); ++i) {
            abstract |=
                1u << (vardata_[out_learnt[i].var()].level & 31);
        }
        for (std::size_t i = 1; i < out_learnt.size(); ++i) {
            const Lit q = out_learnt[i];
            if (vardata_[q.var()].reason == CRef_Undef ||
                !litRedundant(q, abstract)) {
                out_learnt[kept++] = q;
            } else {
                ++stats_.minimized_literals;
            }
        }
    } else {
        kept = out_learnt.size();
    }
    out_learnt.resize(kept);

    // Find the backtrack level: the second-highest level in the clause.
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < out_learnt.size(); ++i) {
            if (vardata_[out_learnt[i].var()].level >
                vardata_[out_learnt[max_i].var()].level) {
                max_i = i;
            }
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = vardata_[out_learnt[1].var()].level;
    }

    for (Lit q : analyze_clear_)
        if (q != lit_Undef)
            seen_[q.var()] = 0;
}

void
Solver::analyzeFinal(Lit p, LitVec &out_conflict)
{
    // Which assumptions force ~p? Walk the implication trail
    // backwards from p marking antecedents; decisions met on the
    // way are assumption literals (search() never branches below
    // the assumption levels before calling this).
    out_conflict.clear();
    out_conflict.push_back(p);
    if (decisionLevel() == 0)
        return;

    seen_[p.var()] = 1;
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trail_lim_[0]; --i) {
        const Var v = trail_[i].var();
        if (!seen_[v])
            continue;
        const CRef reason = vardata_[v].reason;
        if (reason == CRef_Undef) {
            if (vardata_[v].level > 0)
                out_conflict.push_back(~trail_[i]);
        } else {
            const Clause &c = arena_.ref(reason);
            for (int k = 1; k < c.size(); ++k) {
                if (vardata_[c[k].var()].level > 0)
                    seen_[c[k].var()] = 1;
            }
        }
        seen_[v] = 0;
    }
    seen_[p.var()] = 0;
}

bool
Solver::litRedundant(Lit p, std::uint32_t abstract_levels)
{
    analyze_stack_.clear();
    analyze_stack_.push_back(p);
    const std::size_t top = analyze_clear_.size();
    while (!analyze_stack_.empty()) {
        const Lit q = analyze_stack_.back();
        analyze_stack_.pop_back();
        const CRef reason = vardata_[q.var()].reason;
        if (reason == CRef_Undef)
            panic("litRedundant reached a decision literal");
        const Clause &c = arena_.ref(reason);
        for (int k = 1; k < c.size(); ++k) {
            const Lit r = c[k];
            const Var v = r.var();
            if (seen_[v] || vardata_[v].level == 0)
                continue;
            if (vardata_[v].reason != CRef_Undef &&
                (1u << (vardata_[v].level & 31)) & abstract_levels) {
                seen_[v] = 1;
                analyze_stack_.push_back(r);
                analyze_clear_.push_back(r);
            } else {
                // Cannot be resolved away: undo the marks we added.
                for (std::size_t i = top; i < analyze_clear_.size(); ++i)
                    seen_[analyze_clear_[i].var()] = 0;
                analyze_clear_.resize(top);
                return false;
            }
        }
    }
    return true;
}

void
Solver::cancelUntil(int level)
{
    if (decisionLevel() <= level)
        return;
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trail_lim_[level]; --i) {
        const Lit p = trail_[i];
        const Var v = p.var();
        if (track_sat_) {
            // The literal p stops being true: clauses that relied on
            // it as their last satisfied literal return to the unsat
            // set.
            for (const int ci : lit_occurs_[p.x])
                if (--sat_count_[ci] == 0)
                    unsatAdd(ci);
        }
        values_[p.x] = l_Undef;
        values_[(~p).x] = l_Undef;
        if (opts_.phase_saving)
            polarity_[v] = p.sign();
        insertVarOrder(v);
    }
    qhead_ = trail_lim_[level];
    trail_.resize(trail_lim_[level]);
    trail_lim_.resize(level);
}

Lit
Solver::pickBranchLit()
{
    Var next = var_Undef;

    if (opts_.random_branch_freq > 0 &&
        rng_.chance(opts_.random_branch_freq)) {
        random_pool_.clear();
        for (Var v = 0; v < numVars(); ++v)
            if (value(v).isUndef())
                random_pool_.push_back(v);
        if (!random_pool_.empty())
            next = rng_.pick(random_pool_);
    }

    while (next == var_Undef || !value(next).isUndef()) {
        if (order_heap_.empty())
            return lit_Undef;
        next = order_heap_.removeMax();
    }

    bool sign;
    if (!user_phase_[next].isUndef())
        sign = user_phase_[next].isFalse();
    else if (opts_.phase_saving)
        sign = polarity_[next];
    else
        sign = !opts_.default_phase;
    return mkLit(next, sign);
}

void
Solver::setPhase(Var v, bool phase)
{
    user_phase_[v] = lbool(phase);
}

void
Solver::clearPhase(Var v)
{
    user_phase_[v] = l_Undef;
}

void
Solver::suggestPhase(Var v, bool phase)
{
    polarity_[v] = !phase; // stored as the decision literal's sign
}

void
Solver::bumpVarPriority(Var v, double factor)
{
    bumpVarActivity(v, var_inc_ * factor);
    if (factor < 0)
        order_heap_.update(v); // the score shrank: sift down too
}

void
Solver::bumpVarActivity(Var v, double inc)
{
    scores_[v] += inc;
    if (scores_[v] > kActivityRescale) {
        for (auto &s : scores_)
            s *= 1.0 / kActivityRescale;
        var_inc_ *= 1.0 / kActivityRescale;
    }
    order_heap_.increase(v);
}

void
Solver::decayVarActivity()
{
    var_inc_ *= 1.0 / opts_.var_decay;
}

void
Solver::chbUpdate(Var v, bool in_conflict)
{
    const double multiplier = in_conflict ? 1.0 : 0.9;
    const auto age = static_cast<double>(
        stats_.conflicts - chb_last_conflict_[v] + 1);
    const double reward = multiplier / age;
    scores_[v] = (1.0 - chb_alpha_) * scores_[v] + chb_alpha_ * reward;
    chb_last_conflict_[v] = stats_.conflicts;
    order_heap_.update(v);
}

void
Solver::bumpClauseActivity(Clause &c)
{
    c.setActivity(c.activity() + static_cast<float>(cla_inc_));
    if (c.activity() > kClauseActivityRescale) {
        for (CRef cr : learnts_) {
            Clause &lc = arena_.ref(cr);
            lc.setActivity(
                lc.activity() *
                static_cast<float>(1.0 / kClauseActivityRescale));
        }
        cla_inc_ *= 1.0 / kClauseActivityRescale;
    }
}

void
Solver::decayClauseActivity()
{
    cla_inc_ *= 1.0 / opts_.clause_decay;
}

bool
Solver::isLocked(const Clause &c) const
{
    const CRef reason = vardata_[c[0].var()].reason;
    if (reason == CRef_Undef || !value(c[0]).isTrue())
        return false;
    return &arena_.ref(reason) == &c;
}

void
Solver::removeClause(CRef cr)
{
    Clause &c = arena_.ref(cr);
    detachClause(cr);
    if (isLocked(c))
        vardata_[c[0].var()].reason = CRef_Undef;
    arena_.free(cr);
    ++stats_.removed_clauses;
}

void
Solver::reduceDB()
{
    ++stats_.reduce_dbs;
    std::sort(learnts_.begin(), learnts_.end(),
              [&](CRef a, CRef b) {
                  const Clause &ca = arena_.ref(a);
                  const Clause &cb = arena_.ref(b);
                  if ((ca.size() > 2) != (cb.size() > 2))
                      return ca.size() > 2;
                  return ca.activity() < cb.activity();
              });

    const double extra_lim =
        cla_inc_ / std::max<std::size_t>(learnts_.size(), 1);
    const auto keep_from = static_cast<std::size_t>(
        static_cast<double>(learnts_.size()) *
        (1.0 - opts_.learnt_keep_ratio));

    std::size_t j = 0;
    for (std::size_t i = 0; i < learnts_.size(); ++i) {
        const Clause &c = arena_.ref(learnts_[i]);
        const bool removable = c.size() > 2 && !isLocked(c) &&
                               (i < keep_from || c.activity() < extra_lim);
        if (removable)
            removeClause(learnts_[i]);
        else
            learnts_[j++] = learnts_[i];
    }
    learnts_.resize(j);

    if (arena_.wasted() > arena_.size() / 5)
        garbageCollect();
}

void
Solver::relocAll(ClauseArena &to)
{
    for (auto &cr : originals_)
        arena_.reloc(cr, to);
    for (auto &cr : learnts_)
        arena_.reloc(cr, to);
    for (Lit p : trail_) {
        auto &reason = vardata_[p.var()].reason;
        if (reason != CRef_Undef) {
            // A reason may already have been freed at root level.
            Clause &c = arena_.ref(reason);
            if (c.reloced() || isLocked(c))
                arena_.reloc(reason, to);
            else
                reason = CRef_Undef;
        }
    }
}

void
Solver::garbageCollect()
{
    ClauseArena to;
    relocAll(to);
    arena_.swap(to);
    // Rebuild the watch lists against the relocated clauses.
    for (auto &ws : watches_)
        ws.clear();
    for (CRef cr : originals_)
        attachClause(cr);
    for (CRef cr : learnts_)
        attachClause(cr);
}

bool
Solver::simplifyAtRoot()
{
    if (decisionLevel() != 0)
        panic("simplifyAtRoot called above the root level");
    if (propagate() != CRef_Undef) {
        ok_ = false;
        return false;
    }
    // A sweep only removes clauses that a root fact satisfies, and
    // none are new without a new root fact: learnt clauses never
    // contain root literals, and addClause/importClause simplify
    // against the root trail. So sweep only when the root trail grew.
    if (static_cast<int>(trail_.size()) == simp_db_assigns_)
        return true;
    simp_db_assigns_ = static_cast<int>(trail_.size());
    auto sweep = [&](std::vector<CRef> &list) {
        std::size_t j = 0;
        for (std::size_t i = 0; i < list.size(); ++i) {
            const Clause &c = arena_.ref(list[i]);
            bool satisfied = false;
            for (const Lit p : c) {
                if (value(p).isTrue()) {
                    satisfied = true;
                    break;
                }
            }
            if (satisfied && !isLocked(c))
                removeClause(list[i]);
            else
                list[j++] = list[i];
        }
        list.resize(j);
    };
    sweep(learnts_);
    sweep(originals_);
    return true;
}

std::int64_t
Solver::restartLimit(int restart_number) const
{
    const double raw =
        opts_.luby_restarts
            ? luby(2.0, restart_number) * opts_.restart_first
            : std::pow(opts_.restart_inc, restart_number) *
                  opts_.restart_first;
    // Geometric schedules exceed any integer after a few dozen
    // restarts; saturate (the !(raw < max) form also catches NaN)
    // instead of letting the cast hit UB.
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    if (!(raw < static_cast<double>(kMax)))
        return kMax;
    return std::max<std::int64_t>(static_cast<std::int64_t>(raw), 1);
}

void
Solver::attachMetrics(MetricsRegistry *registry)
{
    if (!registry) {
        metrics_ = {};
        return;
    }
    metrics_.decisions = registry->counter("solver.decisions");
    metrics_.propagations = registry->counter("solver.propagations");
    metrics_.conflicts = registry->counter("solver.conflicts");
    metrics_.restarts = registry->counter("solver.restarts");
    metrics_.reduce_dbs = registry->counter("solver.reduce_dbs");
    metrics_.learned_clauses =
        registry->counter("solver.learned_clauses");
    metrics_.removed_clauses =
        registry->counter("solver.removed_clauses");
    metrics_.minimized_literals =
        registry->counter("solver.minimized_literals");
    metrics_.exported_clauses =
        registry->counter("solver.exported_clauses");
    metrics_.imported_clauses =
        registry->counter("solver.imported_clauses");
    metrics_.iterations = registry->counter("solver.iterations");
    metrics_.search_s = registry->timer("solver.search");
    metrics_.propagations_per_s =
        registry->gauge("solver.propagations_per_s");
    metrics_.trace = registry->trace();
    // Publish future deltas only: attaching mid-life must not replay
    // counts an earlier registry already received.
    metrics_base_ = stats_;
}

void
Solver::publishMetrics()
{
    if (!metrics_.decisions)
        return;
    const auto publish = [](Counter *c, std::uint64_t cur,
                            std::uint64_t &base) {
        if (cur > base)
            c->add(cur - base);
        base = cur;
    };
    publish(metrics_.decisions, stats_.decisions,
            metrics_base_.decisions);
    publish(metrics_.propagations, stats_.propagations,
            metrics_base_.propagations);
    publish(metrics_.conflicts, stats_.conflicts,
            metrics_base_.conflicts);
    publish(metrics_.restarts, stats_.restarts, metrics_base_.restarts);
    publish(metrics_.reduce_dbs, stats_.reduce_dbs,
            metrics_base_.reduce_dbs);
    publish(metrics_.learned_clauses, stats_.learned_clauses,
            metrics_base_.learned_clauses);
    publish(metrics_.removed_clauses, stats_.removed_clauses,
            metrics_base_.removed_clauses);
    publish(metrics_.minimized_literals, stats_.minimized_literals,
            metrics_base_.minimized_literals);
    publish(metrics_.exported_clauses, stats_.exported_clauses,
            metrics_base_.exported_clauses);
    publish(metrics_.imported_clauses, stats_.imported_clauses,
            metrics_base_.imported_clauses);
    publish(metrics_.iterations, stats_.iterations,
            metrics_base_.iterations);
}

bool
Solver::budgetExhausted() const
{
    if (conflict_budget_ >= 0 &&
        stats_.conflicts >= static_cast<std::uint64_t>(conflict_budget_)) {
        return true;
    }
    if (decision_budget_ >= 0 &&
        stats_.decisions >= static_cast<std::uint64_t>(decision_budget_)) {
        return true;
    }
    return false;
}

lbool
Solver::search(std::int64_t max_conflicts)
{
    std::int64_t conflicts_here = 0;
    LitVec learnt;

    for (;;) {
        const CRef confl = propagate();
        if (confl != CRef_Undef) {
            ++stats_.conflicts;
            ++conflicts_here;
            if (decisionLevel() == 0)
                return l_False;
            if (decisionLevel() <=
                static_cast<int>(assumptions_.size())) {
                // Conflict inside the assumption prefix: collect
                // the responsible assumptions and stop.
                final_conflict_.clear();
                const Clause &c = arena_.ref(confl);
                for (const Lit q : c) {
                    if (vardata_[q.var()].level > 0)
                        seen_[q.var()] = 1;
                }
                for (int i = static_cast<int>(trail_.size()) - 1;
                     i >= trail_lim_[0]; --i) {
                    const Var v = trail_[i].var();
                    if (!seen_[v])
                        continue;
                    const CRef reason = vardata_[v].reason;
                    if (reason == CRef_Undef) {
                        final_conflict_.push_back(~trail_[i]);
                    } else {
                        const Clause &rc = arena_.ref(reason);
                        for (int k = 1; k < rc.size(); ++k)
                            if (vardata_[rc[k].var()].level > 0)
                                seen_[rc[k].var()] = 1;
                    }
                    seen_[v] = 0;
                }
                return l_False;
            }

            learnt.clear();
            int backtrack_level = 0;
            analyze(confl, learnt, backtrack_level);
            cancelUntil(backtrack_level);

            if (learnt.size() == 1) {
                assign(learnt[0], CRef_Undef);
            } else {
                // Saturating capacity guard: reclaim freed space
                // before the arena would outgrow the CRef address
                // space (alloc panics if gc cannot make room).
                if (arena_.wouldExceed(learnt.size()) &&
                    arena_.wasted() > 0) {
                    garbageCollect();
                }
                const CRef cr = arena_.alloc(learnt, true);
                learnts_.push_back(cr);
                attachClause(cr);
                bumpClauseActivity(arena_.ref(cr));
                assign(learnt[0], cr);
                ++stats_.learned_clauses;
            }

            if (export_hook_) {
                ++stats_.exported_clauses;
                export_hook_(learnt);
            }

            if (opts_.branching != Branching::CHB)
                decayVarActivity();
            decayClauseActivity();
            chb_alpha_ = std::max(opts_.chb_alpha_min,
                                  chb_alpha_ - opts_.chb_alpha_decay);

            if (--learntsize_adjust_cnt_ <= 0) {
                learntsize_adjust_confl_ *= 1.5;
                learntsize_adjust_cnt_ =
                    static_cast<int>(learntsize_adjust_confl_);
                max_learnts_ *= opts_.learnt_size_inc;
            }

            // External cancellation point: a racing portfolio must
            // be able to cut a conflict streak short, not just wait
            // for the next conflict-free decision. requestStop() is
            // deliberately NOT checked here so single-threaded stop
            // semantics (and the determinism guard) are unchanged.
            if (stop_token_ && stop_token_->stopRequested()) {
                cancelUntil(0);
                return l_Undef;
            }
        } else {
            if ((max_conflicts >= 0 && conflicts_here >= max_conflicts) ||
                budgetExhausted() || stopNow()) {
                cancelUntil(0);
                return l_Undef;
            }
            if (decisionLevel() == 0 && !simplifyAtRoot())
                return l_False;
            if (decisionLevel() == 0 && root_hook_) {
                // Clause-sharing import point: the trail holds only
                // level-0 facts here, so foreign clauses attach
                // soundly (see importClause).
                root_hook_(*this);
                if (!ok_)
                    return l_False;
            }
            if (static_cast<double>(learnts_.size()) >=
                max_learnts_ + static_cast<double>(trail_.size())) {
                reduceDB();
            }

            // Pending assumptions take priority over branching.
            Lit next = lit_Undef;
            while (decisionLevel() <
                   static_cast<int>(assumptions_.size())) {
                const Lit a = assumptions_[decisionLevel()];
                if (value(a).isTrue()) {
                    // Already satisfied: open an empty level so the
                    // level <-> assumption indexing stays aligned.
                    trail_lim_.push_back(
                        static_cast<int>(trail_.size()));
                } else if (value(a).isFalse()) {
                    analyzeFinal(~a, final_conflict_);
                    return l_False;
                } else {
                    next = a;
                    break;
                }
            }

            if (next == lit_Undef) {
                if (hook_)
                    hook_(*this);
                if (stopNow()) {
                    cancelUntil(0);
                    return l_Undef;
                }
                next = pickBranchLit();
                if (next == lit_Undef)
                    return l_True;
                ++stats_.iterations;
                ++stats_.decisions;
            }
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            assign(next, CRef_Undef);
        }
    }
}

lbool
Solver::solve()
{
    assumptions_.clear();
    return solveInternal();
}

lbool
Solver::solveWithAssumptions(const LitVec &assumptions)
{
    for (const Lit p : assumptions)
        while (p.var() >= numVars())
            newVar();
    assumptions_ = assumptions;
    const lbool result = solveInternal();
    assumptions_.clear();
    return result;
}

lbool
Solver::solveInternal()
{
    // Clear the per-call outputs BEFORE the ok_ short-circuit: a
    // repeat call on a permanently-unsat solver must return the
    // empty core ("UNSAT regardless of assumptions"), not whatever
    // finalConflict() the previous call left behind.
    model_.clear();
    final_conflict_.clear();
    if (!ok_)
        return l_False;
    stop_requested_ = false;

    max_learnts_ = std::max(
        static_cast<double>(originals_.size()) *
            opts_.learnt_size_factor,
        8.0);
    learntsize_adjust_confl_ = 100;
    learntsize_adjust_cnt_ = 100;

    const Timer search_timer;
    const std::uint64_t propagations_before = stats_.propagations;

    lbool status = l_Undef;
    for (int restarts = 0; status.isUndef(); ++restarts) {
        const std::int64_t limit = restartLimit(restarts);
        status = search(limit);
        if (status.isUndef() && (budgetExhausted() || stopNow()))
            break;
        if (status.isUndef()) {
            ++stats_.restarts;
            if (metrics_.trace) {
                metrics_.trace->event(
                    "solver.restart",
                    {{"number", static_cast<double>(restarts + 1)},
                     {"limit_conflicts", static_cast<double>(limit)},
                     {"conflicts",
                      static_cast<double>(stats_.conflicts)}});
            }
            publishMetrics();
        }
    }

    if (metrics_.search_s) {
        const double seconds = search_timer.seconds();
        metrics_.search_s->add(seconds);
        if (seconds > 0.0) {
            metrics_.propagations_per_s->set(
                static_cast<double>(stats_.propagations -
                                    propagations_before) /
                seconds);
        }
    }
    publishMetrics();

    if (status.isTrue()) {
        // Fill unassigned (eliminated/pure) variables arbitrarily.
        model_.resize(static_cast<std::size_t>(numVars()));
        for (Var v = 0; v < numVars(); ++v)
            model_[v] = value(v).isUndef() ? l_False : value(v);
    } else if (status.isFalse() && final_conflict_.empty()) {
        // Refuted without using any assumption: permanently unsat.
        ok_ = false;
    }
    cancelUntil(0);
    return status;
}

std::vector<bool>
Solver::boolModel() const
{
    std::vector<bool> out(model_.size());
    for (std::size_t i = 0; i < model_.size(); ++i)
        out[i] = model_[i].isTrue();
    return out;
}

void
Solver::unsatAdd(int ci)
{
    if (unsat_pos_[ci] >= 0)
        return;
    unsat_pos_[ci] = static_cast<int>(unsat_list_.size());
    unsat_list_.push_back(ci);
}

void
Solver::unsatRemove(int ci)
{
    const int pos = unsat_pos_[ci];
    if (pos < 0)
        return;
    const int last = unsat_list_.back();
    unsat_list_[pos] = last;
    unsat_pos_[last] = pos;
    unsat_list_.pop_back();
    unsat_pos_[ci] = -1;
}

void
Solver::untrackOriginal(int idx)
{
    // Undo a previous registration of index idx (addClause reusing
    // an original index): strip its occurrence-list entries so the
    // new literals do not double-count. source_[idx] still holds the
    // OLD literals at this point.
    if (idx >= static_cast<int>(sat_count_.size()))
        return;
    for (const Lit p : source_[idx]) {
        auto &occ = lit_occurs_[p.x];
        for (std::size_t i = 0; i < occ.size(); ++i) {
            if (occ[i] == idx) {
                occ[i] = occ.back();
                occ.pop_back();
                break;
            }
        }
    }
    sat_count_[idx] = 0;
    unsatAdd(idx);
}

void
Solver::trackOriginal(int idx)
{
    // Grow the per-clause arrays; gap indices (reserved by a sparse
    // original_index but never given literals) have zero satisfied
    // literals and therefore sit in the unsat set, matching the
    // scan over their empty source_ entries.
    const int old = static_cast<int>(sat_count_.size());
    if (idx >= old) {
        sat_count_.resize(idx + 1, 0);
        unsat_pos_.resize(idx + 1, -1);
        for (int i = old; i <= idx; ++i)
            unsatAdd(i);
    }
    int count = 0;
    for (const Lit p : source_[idx]) {
        lit_occurs_[p.x].push_back(idx);
        if (value(p).isTrue())
            ++count;
    }
    sat_count_[idx] = count;
    if (count > 0)
        unsatRemove(idx);
    else
        unsatAdd(idx);
}

bool
Solver::originalClauseSatisfiedNow(int idx) const
{
    if (track_sat_)
        return sat_count_[idx] > 0;
    for (const Lit p : source_[idx])
        if (value(p).isTrue())
            return true;
    return false;
}

void
Solver::unsatisfiedOriginalClausesInto(std::vector<int> &out) const
{
    out.clear();
    if (track_sat_) {
        // Sorted copy of the live sparse set: ascending order keeps
        // the result bit-identical to the scan implementation (and
        // independent of the swap-erase history).
        out.assign(unsat_list_.begin(), unsat_list_.end());
        std::sort(out.begin(), out.end());
        return;
    }
    for (int i = 0; i < numOriginalClauses(); ++i)
        if (!originalClauseSatisfiedNow(i))
            out.push_back(i);
}

std::vector<int>
Solver::unsatisfiedOriginalClauses() const
{
    std::vector<int> out;
    unsatisfiedOriginalClausesInto(out);
    return out;
}

} // namespace hyqsat::sat
