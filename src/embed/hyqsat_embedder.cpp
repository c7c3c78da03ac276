#include "embed/hyqsat_embedder.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::embed {

namespace {

using topology::Topology;
using sat::Lit;
using sat::LitVec;
using sat::Var;

/** A qubit segment on one horizontal line spanning [c1, c2]. */
struct Segment
{
    bool owner_is_aux = false;
    Var owner_var = sat::var_Undef; ///< valid when !owner_is_aux
    int owner_clause = -1;          ///< valid when owner_is_aux
    int hline = 0;
    int c1 = 0, c2 = 0;
};

} // namespace

/**
 * Reusable state behind EmbedderScratch. Every placed variable owns a
 * vertical line of its own, so per-variable state lives in dense
 * arrays indexed by that line, reached through one Var-indexed line
 * array. reset() clears only what the previous run touched and keeps
 * every vector's capacity, so a run whose queue fits the capacities
 * of earlier runs allocates nothing here.
 */
struct EmbedderScratch::Impl
{
    std::vector<int> line_of; ///< per Var: vertical line, -1 = none
    std::vector<Var> placed;  ///< vars holding a line, in order

    // Per vertical line, i.e. per placed variable.
    std::vector<char> line_used;
    std::vector<std::vector<int>> rows;     ///< home row, then crossings
    std::vector<std::vector<int>> owned;    ///< segment ids, in order
    std::vector<std::vector<Var>> partners; ///< coupled higher vars

    std::vector<char> hline_used; ///< [hline * cols + col]
    std::vector<Segment> segments;
    std::vector<int> aux_segment; ///< per clause index, -1 = none

    // Per-clause undo log and staging.
    std::vector<Var> rows_log;
    LitVec clause;
    std::vector<int> crossings, chain_rows, grown_rows, grown_chain;

    void
    reset(const Topology &graph, const std::vector<LitVec> &queue)
    {
        for (Var v : placed) {
            const int line = line_of[v];
            rows[line].clear();
            owned[line].clear();
            partners[line].clear();
            line_of[v] = -1;
        }
        placed.clear();
        Var max_var = -1;
        for (const auto &clause : queue)
            for (Lit p : clause)
                max_var = std::max(max_var, p.var());
        if (line_of.size() < static_cast<std::size_t>(max_var + 1))
            line_of.resize(max_var + 1, -1);
        const int lines = graph.numVerticalLines();
        line_used.assign(lines, 0);
        rows.resize(lines);
        owned.resize(lines);
        partners.resize(lines);
        hline_used.assign(static_cast<std::size_t>(graph.numHorizontalLines()) *
                              graph.cols(),
                          0);
        segments.clear();
        aux_segment.clear();
    }
};

EmbedderScratch::EmbedderScratch() : impl_(std::make_unique<Impl>()) {}
EmbedderScratch::~EmbedderScratch() = default;
EmbedderScratch::EmbedderScratch(EmbedderScratch &&) noexcept = default;
EmbedderScratch &
EmbedderScratch::operator=(EmbedderScratch &&) noexcept = default;

namespace {

/**
 * Working state of one embedQueue() run (containers borrowed from an
 * EmbedderScratch::Impl that was reset for this run).
 *
 * Every variable gets a vertical line of its own (pickLine only takes
 * empty lines), so no two variables' vertical chains share a line and
 * any crossing row is available to any variable.
 */
class Builder
{
  public:
    Builder(const Topology &graph, const HyQsatEmbedderOptions &opts,
            EmbedderScratch::Impl &scratch)
        : graph_(graph), opts_(opts), s_(scratch)
    {
    }

    /** Try to embed one canonical clause; false leaves state intact. */
    bool
    tryClause(const LitVec &clause, int clause_index)
    {
        const std::size_t placed_before = s_.placed.size();
        const std::size_t segments_before = s_.segments.size();
        s_.rows_log.clear();
        Var coupled = sat::var_Undef; // lower var of a new pair

        auto rollback = [&]() {
            while (s_.segments.size() > segments_before) {
                const Segment &seg = s_.segments.back();
                for (int c = seg.c1; c <= seg.c2; ++c)
                    used(seg.hline, c) = 0;
                if (seg.owner_is_aux)
                    s_.aux_segment[seg.owner_clause] = -1;
                else
                    ownedBy(seg.owner_var).pop_back();
                s_.segments.pop_back();
            }
            for (Var v : s_.rows_log)
                rowsOf(v).pop_back();
            if (coupled != sat::var_Undef)
                partnersOf(coupled).pop_back();
            while (s_.placed.size() > placed_before) {
                const Var v = s_.placed.back();
                s_.line_used[s_.line_of[v]] = 0;
                s_.line_of[v] = -1;
                s_.placed.pop_back();
            }
        };

        // Step 1: allocate a vertical line for each unseen variable,
        // with a soft home row reserved at the bottom so every
        // variable owns a non-empty interval from birth.
        for (Lit p : clause) {
            const Var v = p.var();
            if (s_.line_of[v] >= 0)
                continue;
            const int line = pickLine(clause);
            if (line < 0) {
                rollback();
                return false;
            }
            s_.line_of[v] = line;
            s_.line_used[line] = 1;
            s_.placed.push_back(v);
            markRow(v, graph_.rows() - 1);
        }

        // Step 2: satisfy the clause's connection requirements.
        auto placeVarVar = [&](Var a, Var b) {
            const Var lo = std::min(a, b), hi = std::max(a, b);
            const auto &mates = partnersOf(lo);
            if (std::find(mates.begin(), mates.end(), hi) != mates.end())
                return true;
            const Var touching[] = {a, b};
            if (!placeSegment(/*aux=*/false, a, -1,
                              std::min(colOf(a), colOf(b)),
                              std::max(colOf(a), colOf(b)), touching)) {
                return false;
            }
            partnersOf(lo).push_back(hi);
            coupled = lo;
            return true;
        };

        bool ok = true;
        if (clause.size() == 2) {
            ok = placeVarVar(clause[0].var(), clause[1].var());
        } else if (clause.size() == 3) {
            const Var v0 = clause[0].var();
            const Var v1 = clause[1].var();
            const Var v2 = clause[2].var();
            const int k0 = colOf(v0), k1 = colOf(v1), k2 = colOf(v2);
            const Var touching[] = {v0, v1, v2};
            ok = placeVarVar(v0, v1) &&
                 placeSegment(/*aux=*/true, sat::var_Undef, clause_index,
                              std::min({k0, k1, k2}),
                              std::max({k0, k1, k2}), touching);
        }
        if (!ok) {
            rollback();
            return false;
        }
        return true;
    }

    /** Materialize chains for the encoded prefix problem. */
    Embedding
    buildEmbedding(const qubo::EncodedProblem &ep)
    {
        Embedding emb(ep.numNodes());
        for (int n = 0; n < ep.numNodes(); ++n) {
            auto &chain = emb.chain(n);
            const auto &info = ep.nodes[n];
            if (info.is_aux) {
                const Segment &seg =
                    s_.segments[s_.aux_segment[info.clause]];
                chain.reserve(seg.c2 - seg.c1 + 1);
                appendSegment(chain, seg);
                continue;
            }
            // Variable: vertical span + owned horizontal segments.
            const Var v = info.var;
            chainRows(rowsOf(v), s_.chain_rows);
            std::size_t size = s_.chain_rows.size();
            for (int si : ownedBy(v))
                size += s_.segments[si].c2 - s_.segments[si].c1 + 1;
            chain.reserve(size);
            for (int r : s_.chain_rows)
                chain.push_back(
                    graph_.verticalLineQubit(s_.line_of[v], r));
            for (int si : ownedBy(v))
                appendSegment(chain, s_.segments[si]);
        }
        return emb;
    }

  private:
    char &
    used(int hline, int col)
    {
        return s_.hline_used[static_cast<std::size_t>(hline) *
                                 graph_.cols() +
                             col];
    }

    int
    colOf(Var v) const
    {
        return graph_.verticalLineColumn(s_.line_of[v]);
    }

    std::vector<int> &rowsOf(Var v) { return s_.rows[s_.line_of[v]]; }
    std::vector<int> &ownedBy(Var v) { return s_.owned[s_.line_of[v]]; }

    std::vector<Var> &
    partnersOf(Var v)
    {
        return s_.partners[s_.line_of[v]];
    }

    void
    appendSegment(std::vector<int> &chain, const Segment &seg) const
    {
        for (int c = seg.c1; c <= seg.c2; ++c)
            chain.push_back(graph_.horizontalLineQubit(seg.hline, c));
    }

    /** Record crossing row @p r on @p v's vertical chain (logged). */
    void
    markRow(Var v, int r)
    {
        rowsOf(v).push_back(r);
        s_.rows_log.push_back(v);
    }

    /**
     * Rows of a vertical chain, ascending, from its rows entry: the
     * first element is the soft home row (dropped once real
     * crossings exist). The chain must visit every crossing row
     * (where a horizontal segment couples to it); between crossings
     * it only needs stepping stones every lineReach() rows, so on
     * Pegasus the skip couplers let the chain leave interior rows
     * free. With reach 1 the bridging degenerates to the contiguous
     * [r_min, r_max] span.
     */
    void
    chainRows(const std::vector<int> &rows, std::vector<int> &out)
    {
        auto &crossings = s_.crossings;
        crossings.assign(rows.size() >= 2 ? rows.begin() + 1 : rows.begin(),
                         rows.end());
        std::sort(crossings.begin(), crossings.end());
        crossings.erase(std::unique(crossings.begin(), crossings.end()),
                        crossings.end());

        const int reach = graph_.lineReach();
        out.clear();
        for (std::size_t i = 0; i < crossings.size(); ++i) {
            out.push_back(crossings[i]);
            if (i + 1 < crossings.size()) {
                for (int r = crossings[i] + reach; r < crossings[i + 1];
                     r += reach)
                    out.push_back(r);
            }
        }
    }

    /**
     * Vertical qubits @p v's chain gains if row @p r is recorded as
     * a new crossing (0 when the chain already covers it).
     */
    int
    verticalGrowth(Var v, int r)
    {
        const std::vector<int> &rows = rowsOf(v);
        s_.grown_rows.assign(rows.begin(), rows.end());
        s_.grown_rows.push_back(r);
        chainRows(s_.grown_rows, s_.grown_chain);
        chainRows(rows, s_.chain_rows);
        return static_cast<int>(s_.grown_chain.size()) -
               static_cast<int>(s_.chain_rows.size());
    }

    /**
     * Pick a free vertical line for a fresh variable of @p clause:
     * sequential allocation in queue order (§IV-B step 1). One
     * variable per line; consecutive allocations land in adjacent
     * columns, which preserves the BFS queue's variable locality in
     * hardware (clause segments then span few columns). @return -1
     * when every line is taken.
     *
     * Row-sharing of vertical lines was evaluated and rejected: two
     * variables on one line partition the rows, and any clause
     * coupling variables of different row bands becomes
     * unembeddable, so shared lines lower - not raise - the
     * achievable clause capacity.
     */
    int
    pickLine(const LitVec &clause) const
    {
        // Prefer the free line whose column is nearest the clause's
        // already-placed variables: horizontal segments span the
        // columns they connect, so column locality directly shrinks
        // segment width and raises the clause capacity.
        const int lines = graph_.numVerticalLines();
        double target_col = -1.0;
        int placed = 0;
        for (Lit p : clause) {
            const int line = s_.line_of[p.var()];
            if (line >= 0) {
                target_col += graph_.verticalLineColumn(line);
                ++placed;
            }
        }
        int best = -1;
        double best_score = 1e18;
        for (int line = 0; line < lines; ++line) {
            if (s_.line_used[line])
                continue;
            // Without placed clause-mates, fall back to low index
            // (columns fill left to right, matching queue order).
            const double score =
                placed == 0
                    ? static_cast<double>(line)
                    : std::abs(graph_.verticalLineColumn(line) -
                               (target_col + 1.0) / placed) *
                              lines +
                          line;
            if (score < best_score) {
                best_score = score;
                best = line;
            }
        }
        return best;
    }

    /** Record crossing row @p row for every participant of a segment. */
    void
    markRows(bool aux, Var owner_var, std::span<const Var> touching,
             int row)
    {
        for (Var v : touching)
            markRow(v, row);
        if (!aux)
            markRow(owner_var, row);
    }

    /** Append a segment and index it under its owner. */
    void
    addSegment(const Segment &seg)
    {
        const int id = static_cast<int>(s_.segments.size());
        s_.segments.push_back(seg);
        if (seg.owner_is_aux) {
            if (s_.aux_segment.size() <=
                static_cast<std::size_t>(seg.owner_clause))
                s_.aux_segment.resize(seg.owner_clause + 1, -1);
            s_.aux_segment[seg.owner_clause] = id;
        } else {
            ownedBy(seg.owner_var).push_back(id);
        }
    }

    /**
     * Try to host a [c1, c2] segment for @p owner_var on the
     * odd-coupled partner line of one of the owner's existing
     * segments. A shared column's per-cell odd coupler splices the
     * new segment into the owner's chain, and the partner runs
     * through the same cell row, so no vertical chain gains a
     * crossing row. Only spans that already overlap the existing
     * segment qualify (the placement costs exactly the cells a
     * first-fit placement would), and only rows that grow no
     * participant's vertical chain — so taking the partner line is
     * never worse than whatever row first-fit would have picked.
     * Returns false on fabrics without odd couplers
     * (horizontalLinePartner() is -1).
     */
    bool
    tryOddPartner(Var owner_var, int c1, int c2,
                  std::span<const Var> touching)
    {
        const auto &owned = ownedBy(owner_var);
        for (std::size_t k = 0; k < owned.size(); ++k) {
            // Copy the fields: addSegment below reallocates.
            const Segment seg = s_.segments[owned[k]];
            const int partner = graph_.horizontalLinePartner(seg.hline);
            if (partner < 0)
                continue;
            if (c2 < seg.c1 || c1 > seg.c2)
                continue; // no shared column to splice through
            const int row = graph_.horizontalLineRow(seg.hline);
            bool grows = verticalGrowth(owner_var, row) > 0;
            for (std::size_t vi = 0; vi < touching.size() && !grows; ++vi)
                grows = verticalGrowth(touching[vi], row) > 0;
            if (grows)
                continue;
            bool free = true;
            for (int c = c1; c <= c2 && free; ++c)
                free = !used(partner, c);
            if (!free)
                continue;
            for (int c = c1; c <= c2; ++c)
                used(partner, c) = 1;
            addSegment({false, owner_var, -1, partner, c1, c2});
            markRows(false, owner_var, touching, row);
            return true;
        }
        return false;
    }

    /**
     * Place (or extend) a horizontal segment for the owner covering
     * columns [c1, c2] (which include the owner variable's own
     * column); record the crossing row for each variable in
     * @p touching so vertical spans cover it.
     */
    bool
    placeSegment(bool aux, Var owner_var, int owner_clause, int c1, int c2,
                 std::span<const Var> touching)
    {
        // Try extending one of the owner's existing segments. The
        // extension is recorded as fresh segments over the newly
        // covered cells (so rollback stays per-clause); the chains
        // merge because both segments share the owner and line.
        if (opts_.reuse_segments && !aux) {
            const auto &owned = ownedBy(owner_var);
            for (std::size_t k = 0; k < owned.size(); ++k) {
                // Copy the fields: addSegment below reallocates.
                const Segment seg = s_.segments[owned[k]];
                const int e1 = std::min(seg.c1, c1);
                const int e2 = std::max(seg.c2, c2);
                bool free = true;
                for (int c = e1; c <= e2 && free; ++c) {
                    free &= (c >= seg.c1 && c <= seg.c2) ||
                            !used(seg.hline, c);
                }
                if (!free)
                    continue;
                for (int c = e1; c <= e2; ++c)
                    used(seg.hline, c) = 1;
                if (e1 < seg.c1)
                    addSegment({false, owner_var, -1, seg.hline, e1,
                                seg.c1 - 1});
                if (e2 > seg.c2)
                    addSegment({false, owner_var, -1, seg.hline,
                                seg.c2 + 1, e2});
                markRows(aux, owner_var, touching,
                         graph_.horizontalLineRow(seg.hline));
                return true;
            }

            // Second pass: every same-line extension was blocked by
            // occupancy. On fabrics with odd couplers, a segment on
            // the odd-coupled partner line still crosses every target
            // column in the same cell row, and sharing one column
            // with the owner's existing segment splices the two into
            // one chain through the per-cell odd coupler — so the
            // clause is served without opening a new crossing row on
            // any vertical chain. Only spans that already overlap the
            // owner's segment qualify (zero extra cells versus a
            // first-fit placement). No-op on Chimera.
            if (opts_.odd_couplers &&
                tryOddPartner(owner_var, c1, c2, touching)) {
                return true;
            }
        }

        // First-fit scan, bottom row first, tracks in order.
        for (int r = graph_.rows() - 1; r >= 0; --r) {
            for (int t = 0; t < graph_.shore(); ++t) {
                const int hline = r * graph_.shore() + t;
                bool free = true;
                for (int c = c1; c <= c2 && free; ++c)
                    free = !used(hline, c);
                if (!free)
                    continue;
                for (int c = c1; c <= c2; ++c)
                    used(hline, c) = 1;
                addSegment({aux, owner_var, owner_clause, hline, c1, c2});
                markRows(aux, owner_var, touching, r);
                return true;
            }
        }
        return false;
    }

    const Topology &graph_;
    HyQsatEmbedderOptions opts_;
    EmbedderScratch::Impl &s_;
};

} // namespace

HyQsatEmbedder::HyQsatEmbedder(const topology::Topology &graph,
                               const HyQsatEmbedderOptions &opts)
    : graph_(graph), opts_(opts)
{
}

QueueEmbedResult
HyQsatEmbedder::embedQueue(const std::vector<sat::LitVec> &queue)
{
    EmbedderScratch scratch;
    return embedQueue(queue, scratch);
}

QueueEmbedResult
HyQsatEmbedder::embedQueue(const std::vector<sat::LitVec> &queue,
                           EmbedderScratch &scratch)
{
    Timer timer;
    EmbedderScratch::Impl &s = *scratch.impl_;
    s.reset(graph_, queue);
    Builder builder(graph_, opts_, s);

    QueueEmbedResult result;
    int accepted = 0;
    for (const auto &raw : queue) {
        // A tautology stays empty and consumes no hardware.
        qubo::canonicalizeClause(raw, s.clause);
        if (s.clause.size() > 3) {
            fatal("HyQsatEmbedder requires 3-SAT clauses (got %zu "
                  "literals)",
                  s.clause.size());
        }
        if (!builder.tryClause(s.clause, accepted))
            break;
        ++accepted;
    }

    result.embedded_clauses = accepted;
    result.all_embedded =
        static_cast<std::size_t>(accepted) == queue.size();
    // Encode the raw prefix: the encoder canonicalizes identically,
    // and raw tautologies must stay tautologies.
    const Timer encode_timer;
    result.problem = qubo::encodeClauses(
        std::span<const sat::LitVec>(queue).first(accepted),
        opts_.encoder);
    result.encode_seconds = encode_timer.seconds();
    result.embedding = builder.buildEmbedding(result.problem);
    result.seconds = timer.seconds();
    return result;
}

} // namespace hyqsat::embed
