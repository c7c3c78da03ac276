/**
 * @file
 * Encoder from 3-SAT clauses to the QA objective function.
 *
 * Every 3-literal clause c_k = l1 v l2 v l3 is decomposed with one
 * auxiliary variable a_k into two sub-clauses (Eq. 3):
 *
 *   c_{k,1} = a_k <-> (l1 v l2)      c_{k,2} = l3 v a_k
 *
 * each of which becomes a quadratic penalty (Eq. 4) that is zero iff
 * the sub-clause is satisfied. The overall objective is the
 * alpha-weighted sum over sub-clauses (Eq. 5). Clauses with one or
 * two literals need no auxiliary variable.
 *
 * The coefficient adjustment of §IV-C (Eqs. 6-9) raises each
 * sub-clause weight alpha_{k,j} from 1 to d_star / d_{k,j} so that after
 * hardware normalization the energy gap grows, without moving the
 * zero ground energy of satisfiable clause sets.
 */

#ifndef HYQSAT_QUBO_ENCODER_H
#define HYQSAT_QUBO_ENCODER_H

#include <array>
#include <span>
#include <unordered_map>
#include <vector>

#include "qubo/qubo.h"
#include "sat/types.h"

namespace hyqsat::qubo {

/** Identity of a problem-graph node. */
struct NodeInfo
{
    bool is_aux = false;
    /** SAT variable (valid when !is_aux). */
    sat::Var var = sat::var_Undef;
    /** Clause index the auxiliary belongs to (valid when is_aux). */
    int clause = -1;
};

/**
 * Unit-weight penalty of one sub-clause (>= 0, == 0 iff satisfied).
 * The fixed penalty models of Eq. 4 touch at most three nodes, so the
 * terms live inline: up to three non-zero linear terms and up to three
 * quadratic terms. The quadratic terms are kept in the order a
 * std::unordered_map<PairKey, double, PairKeyHash> holding them would
 * iterate, because that is the order they enter the objective maps,
 * and the objective maps' own iteration order is part of the
 * encoder's output (quboToIsing and the annealer walk it).
 */
struct SubClausePenalty
{
    struct Linear
    {
        int node = 0;
        double c = 0.0;
    };

    struct Quadratic
    {
        PairKey key;
        double c = 0.0;
    };

    double offset = 0.0;
    std::array<Linear, 3> linear{};
    std::array<Quadratic, 3> quadratic{};
    int num_linear = 0;
    int num_quadratic = 0;
};

/** One sub-clause's penalty and metadata. */
struct SubClause
{
    int clause = 0;           ///< index into EncodedProblem::clauses
    int sub = 0;              ///< 0 or 1 within the clause
    SubClausePenalty penalty; ///< unit-weight penalty
    double d = 0.0;           ///< d_{k,j} of Eq. 7
    double alpha = 1.0;
};

/** Complete encoding of a clause set for the annealer. */
struct EncodedProblem
{
    /** Clauses in encoding order (canonicalized literals). */
    std::vector<sat::LitVec> clauses;

    /** Problem-graph nodes: SAT variables first-seen order + auxes. */
    std::vector<NodeInfo> nodes;

    /** SAT variable -> node id. */
    std::unordered_map<sat::Var, int> var_node;

    /** Clause index -> auxiliary node id (-1 when none needed). */
    std::vector<int> clause_aux;

    /** Sub-clause decomposition with weights. */
    std::vector<SubClause> sub_clauses;

    /**
     * Unit objective: Eq. 5 with every alpha = 1. Its value on an
     * assignment is the "clause-space energy" used by the backend
     * classification (a weighted count of violated sub-clauses).
     */
    QuboModel unit_objective;

    /** Alpha-weighted objective (after coefficient adjustment). */
    QuboModel objective;

    /** Objective scaled by 1/d* to hardware ranges (Eq. 6). */
    QuboModel normalized;

    /** Normalization divisor of the weighted objective. */
    double d_star = 0.0;

    /** @return number of problem-graph nodes. */
    int numNodes() const { return static_cast<int>(nodes.size()); }

    /** @return the problem-graph edges (pairs with non-zero J). */
    std::vector<std::pair<int, int>> edges() const;

    /**
     * Clause-space energy of a node assignment: the unit objective,
     * i.e. zero iff every encoded clause is satisfied (with the
     * auxiliary variables consistent).
     */
    double
    clauseSpaceEnergy(const std::vector<bool> &node_bits) const
    {
        return unit_objective.energy(node_bits);
    }

    /**
     * @return true iff every encoded clause is satisfied by the SAT
     * variable values in @p node_bits (auxiliaries ignored).
     */
    bool clausesSatisfied(const std::vector<bool> &node_bits) const;

    /** Extract per-SAT-variable values from a node assignment. */
    std::unordered_map<sat::Var, bool>
    decode(const std::vector<bool> &node_bits) const;
};

/** Options for the encoder. */
struct EncoderOptions
{
    /** Apply the §IV-C coefficient adjustment (alpha = d_star / d_ij). */
    bool adjust_coefficients = true;
};

/**
 * Canonicalize @p clause into @p out (sorted, duplicate literals
 * dropped; reuses out's capacity). @return false, leaving @p out
 * empty, for a tautology.
 */
bool canonicalizeClause(const sat::LitVec &clause, sat::LitVec &out);

/**
 * Encode a set of clauses (each with 1..3 literals after
 * canonicalization; tautologies are dropped). Clauses longer than
 * three literals are a caller error - convert with toThreeSat first.
 */
EncodedProblem encodeClauses(std::span<const sat::LitVec> clauses,
                             const EncoderOptions &opts = {});

} // namespace hyqsat::qubo

#endif // HYQSAT_QUBO_ENCODER_H
