#include "qubo/encoder.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hyqsat::qubo {

namespace {

/**
 * Literal penalty helper: H_l(x) = s + t*x with (s,t) = (0,+1) for a
 * positive literal and (1,-1) for a negated literal, so H_l == 1
 * exactly when the literal is true.
 */
struct Affine
{
    double s;
    double t;
    int node;
};

Affine
literalPenalty(sat::Lit l, int node)
{
    if (l.sign())
        return {1.0, -1.0, node};
    return {0.0, 1.0, node};
}

/** Builder for the inline terms of a SubClausePenalty. */
class PenaltyBuilder
{
  public:
    void addOffset(double c) { p_.offset += c; }

    void
    addLinear(int node, double c)
    {
        // A zero coefficient contributes nothing to the objectives or
        // to d_{k,j} (both skip zero linear terms).
        if (c != 0.0)
            p_.linear[p_.num_linear++] = {node, c};
    }

    /**
     * Insert J_ij where a default-constructed
     * std::unordered_map<PairKey, double, PairKeyHash> holding the
     * same keys would iterate it (the keys of one penalty are
     * distinct). libstdc++ gives such a map 13 buckets on its first
     * insert; a key whose bucket is already occupied goes first in
     * that bucket's run, any other key goes to the front of the list.
     * Encoder.PenaltyTermsFollowHashMapOrder checks this against the
     * real container.
     */
    void
    addQuadratic(int i, int j, double c)
    {
        const PairKey key(i, j);
        const std::size_t bucket = bucketOf(key);
        int at = 0;
        for (int k = 0; k < p_.num_quadratic; ++k) {
            if (bucketOf(p_.quadratic[k].key) == bucket) {
                at = k;
                break;
            }
        }
        for (int k = p_.num_quadratic; k > at; --k)
            p_.quadratic[k] = p_.quadratic[k - 1];
        p_.quadratic[at] = {key, c};
        ++p_.num_quadratic;
    }

    const SubClausePenalty &penalty() const { return p_; }

  private:
    static std::size_t
    bucketOf(const PairKey &key)
    {
        return PairKeyHash()(key) % 13;
    }

    SubClausePenalty p_;
};

/**
 * Sub-clause c_{k,1} = a <-> (l1 v l2), Eq. 4 top:
 * H = a + H1 + H2 - 2 a H1 - 2 a H2 + H1 H2.
 */
SubClausePenalty
equivalencePenalty(const Affine &h1, const Affine &h2, int aux)
{
    PenaltyBuilder q;
    q.addOffset(h1.s + h2.s + h1.s * h2.s);
    q.addLinear(aux, 1.0 - 2.0 * h1.s - 2.0 * h2.s);
    q.addLinear(h1.node, h1.t + h2.s * h1.t);
    q.addLinear(h2.node, h2.t + h1.s * h2.t);
    q.addQuadratic(aux, h1.node, -2.0 * h1.t);
    q.addQuadratic(aux, h2.node, -2.0 * h2.t);
    q.addQuadratic(h1.node, h2.node, h1.t * h2.t);
    return q.penalty();
}

/**
 * Sub-clause c_{k,2} = l3 v a, Eq. 4 bottom:
 * H = 1 - a - H3 + a H3.
 */
SubClausePenalty
orWithAuxPenalty(const Affine &h3, int aux)
{
    PenaltyBuilder q;
    q.addOffset(1.0 - h3.s);
    q.addLinear(aux, -1.0 + h3.s);
    q.addLinear(h3.node, -h3.t);
    q.addQuadratic(aux, h3.node, h3.t);
    return q.penalty();
}

/** Two-literal clause: H = (1 - H1)(1 - H2), no auxiliary needed. */
SubClausePenalty
pairPenalty(const Affine &h1, const Affine &h2)
{
    PenaltyBuilder q;
    q.addOffset((1.0 - h1.s) * (1.0 - h2.s));
    q.addLinear(h1.node, -h1.t * (1.0 - h2.s));
    q.addLinear(h2.node, -h2.t * (1.0 - h1.s));
    q.addQuadratic(h1.node, h2.node, h1.t * h2.t);
    return q.penalty();
}

/** Unit clause: H = 1 - H1. */
SubClausePenalty
unitPenalty(const Affine &h1)
{
    PenaltyBuilder q;
    q.addOffset(1.0 - h1.s);
    q.addLinear(h1.node, -h1.t);
    return q.penalty();
}

/** Add @p alpha times a sub-clause penalty to @p q. */
void
addPenalty(QuboModel &q, const SubClausePenalty &p, double alpha)
{
    q.addOffset(alpha * p.offset);
    for (int k = 0; k < p.num_linear; ++k)
        q.addLinear(p.linear[k].node, alpha * p.linear[k].c);
    for (int k = 0; k < p.num_quadratic; ++k) {
        const PairKey key = p.quadratic[k].key;
        q.addQuadratic(key.first(), key.second(),
                       alpha * p.quadratic[k].c);
    }
}

/** Per-item maximum coefficient of Eqs. 6-7 over a penalty's terms. */
double
maxItemCoefficient(const SubClausePenalty &items, const QuboModel &full)
{
    double d = 0.0;
    for (int k = 0; k < items.num_linear; ++k)
        d = std::max(d, std::fabs(full.linear(items.linear[k].node)) / 2.0);
    for (int k = 0; k < items.num_quadratic; ++k) {
        if (items.quadratic[k].c != 0.0) {
            const PairKey key = items.quadratic[k].key;
            d = std::max(
                d, std::fabs(full.quadratic(key.first(), key.second())));
        }
    }
    return d;
}

} // namespace

bool
canonicalizeClause(const sat::LitVec &clause, sat::LitVec &out)
{
    out.assign(clause.begin(), clause.end());
    std::sort(out.begin(), out.end());
    std::size_t kept = 0;
    for (sat::Lit p : out) {
        if (kept > 0 && p == out[kept - 1])
            continue;
        if (kept > 0 && p == ~out[kept - 1]) {
            out.clear();
            return false;
        }
        out[kept++] = p;
    }
    out.resize(kept);
    return true;
}

std::vector<std::pair<int, int>>
EncodedProblem::edges() const
{
    std::vector<std::pair<int, int>> out;
    for (const auto &[key, c] : objective.quadraticTerms())
        if (c != 0.0)
            out.emplace_back(key.first(), key.second());
    std::sort(out.begin(), out.end());
    return out;
}

bool
EncodedProblem::clausesSatisfied(const std::vector<bool> &node_bits) const
{
    for (const auto &clause : clauses) {
        bool sat = clause.empty(); // dropped tautologies stay satisfied
        for (sat::Lit p : clause) {
            const int node = var_node.at(p.var());
            if (node_bits[node] != p.sign()) {
                sat = true;
                break;
            }
        }
        if (!sat)
            return false;
    }
    return true;
}

std::unordered_map<sat::Var, bool>
EncodedProblem::decode(const std::vector<bool> &node_bits) const
{
    std::unordered_map<sat::Var, bool> out;
    for (const auto &[v, node] : var_node)
        out[v] = node_bits[node];
    return out;
}

EncodedProblem
encodeClauses(std::span<const sat::LitVec> clauses,
              const EncoderOptions &opts)
{
    EncodedProblem ep;
    ep.clauses.reserve(clauses.size());
    ep.clause_aux.reserve(clauses.size());
    ep.sub_clauses.reserve(2 * clauses.size());

    // Dense SAT variable -> node map for the encoding pass; var_node
    // receives the same pairs in the same (first-seen) order.
    sat::Var max_var = -1;
    for (const auto &raw : clauses)
        for (sat::Lit p : raw)
            max_var = std::max(max_var, p.var());
    std::vector<int> node_of_var(static_cast<std::size_t>(max_var + 1),
                                 -1);
    auto nodeOf = [&](sat::Var v) {
        int &node = node_of_var[v];
        if (node < 0) {
            node = ep.numNodes();
            ep.var_node.emplace(v, node);
            ep.nodes.push_back({false, v, -1});
        }
        return node;
    };
    auto subClause = [&](int clause_index, int sub,
                         const SubClausePenalty &penalty) {
        SubClause sc;
        sc.clause = clause_index;
        sc.sub = sub;
        sc.penalty = penalty;
        ep.sub_clauses.push_back(sc);
    };

    sat::LitVec clause;
    for (const auto &raw : clauses) {
        const int clause_index = static_cast<int>(ep.clauses.size());
        if (raw.empty()) {
            // Empty clauses cannot be encoded as a bounded penalty.
            fatal("cannot encode an empty clause");
        }
        if (!canonicalizeClause(raw, clause)) {
            // Tautologies carry no penalty.
            ep.clauses.emplace_back();
            ep.clause_aux.push_back(-1);
            continue;
        }
        if (clause.size() > 3)
            fatal("encodeClauses requires <= 3 literals per clause "
                  "(got %zu); run toThreeSat first",
                  clause.size());
        ep.clauses.push_back(clause);

        if (clause.size() == 1) {
            const Affine h1 =
                literalPenalty(clause[0], nodeOf(clause[0].var()));
            ep.clause_aux.push_back(-1);
            subClause(clause_index, 0, unitPenalty(h1));
        } else if (clause.size() == 2) {
            const Affine h1 =
                literalPenalty(clause[0], nodeOf(clause[0].var()));
            const Affine h2 =
                literalPenalty(clause[1], nodeOf(clause[1].var()));
            ep.clause_aux.push_back(-1);
            subClause(clause_index, 0, pairPenalty(h1, h2));
        } else {
            const Affine h1 =
                literalPenalty(clause[0], nodeOf(clause[0].var()));
            const Affine h2 =
                literalPenalty(clause[1], nodeOf(clause[1].var()));
            const Affine h3 =
                literalPenalty(clause[2], nodeOf(clause[2].var()));
            const int aux = ep.numNodes();
            ep.nodes.push_back({true, sat::var_Undef, clause_index});
            ep.clause_aux.push_back(aux);
            subClause(clause_index, 0, equivalencePenalty(h1, h2, aux));
            subClause(clause_index, 1, orWithAuxPenalty(h3, aux));
        }
    }

    // Unit objective (every alpha = 1).
    ep.unit_objective.ensureVars(ep.numNodes());
    for (const auto &sc : ep.sub_clauses)
        addPenalty(ep.unit_objective, sc.penalty, 1.0);

    // Coefficient adjustment (Eqs. 6-9).
    const double d_star_unit = ep.unit_objective.normalizationDivisor();
    for (auto &sc : ep.sub_clauses) {
        sc.d = maxItemCoefficient(sc.penalty, ep.unit_objective);
        sc.alpha = (opts.adjust_coefficients && sc.d > 0)
                       ? d_star_unit / sc.d
                       : 1.0;
    }

    ep.objective.ensureVars(ep.numNodes());
    for (const auto &sc : ep.sub_clauses)
        addPenalty(ep.objective, sc.penalty, sc.alpha);

    ep.d_star = ep.objective.normalizationDivisor();
    ep.normalized = ep.objective.normalized();
    return ep;
}

} // namespace hyqsat::qubo
