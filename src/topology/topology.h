/**
 * @file
 * Pluggable hardware-graph topologies behind one value type.
 *
 * Every topology is a grid of unit cells with 'shore' vertical and
 * 'shore' horizontal qubits per cell, viewed by the fast embedder
 * (§IV-B) as a crossbar of lines: a *vertical line* (column c, track
 * k) is the chain of vertical qubits with index k through every cell
 * of column c, and a *horizontal line* (row r, track k) the analogous
 * horizontal chain. A vertical and a horizontal line cross in exactly
 * one cell, where an intra-cell coupler connects them.
 *
 * Three families share that skeleton:
 *
 *  - Chimera (D-Wave 2000Q: 16x16 cells of K4,4, 2048 qubits).
 *    Intra-cell couplers form a complete bipartite K_{s,s}; inter-cell
 *    couplers chain each line one cell at a time. Degree 6 inside the
 *    fabric; a chain must occupy every cell it spans (lineReach() 1).
 *
 *  - Pegasus-style. Keeps every Chimera coupler and adds, in the
 *    spirit of D-Wave's Pegasus fabric, (a) *odd couplers* pairing
 *    tracks (2t, 2t+1) of the same shore inside each cell and (b)
 *    *skip couplers* connecting each line to the cell two steps away
 *    (rows r and r+2 on a vertical line, columns c and c+2 on a
 *    horizontal one). Degree rises to ~9 and a chain along a line may
 *    skip every other cell (lineReach() 2), so the same clause queue
 *    embeds with shorter chains.
 *
 *  - Zephyr-style. Everything Pegasus has plus a third coupler
 *    distance along each line (rows r and r+3 on a vertical line,
 *    columns c and c+3 on a horizontal one), in the spirit of
 *    D-Wave's Zephyr fabric's longer internal couplers. A chain may
 *    leave two cells free between consecutive qubits (lineReach()
 *    3), thinning chains further on large grids.
 *
 * The plain (rows, cols, shore) constructor builds a Chimera graph.
 */

#ifndef HYQSAT_TOPOLOGY_TOPOLOGY_H
#define HYQSAT_TOPOLOGY_TOPOLOGY_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace hyqsat::topology {

/** Side of a unit cell a qubit belongs to. */
enum class Shore
{
    Vertical = 0,
    Horizontal = 1,
};

/** Decoded qubit coordinate. */
struct QubitCoord
{
    int row = 0;   ///< cell row
    int col = 0;   ///< cell column
    Shore shore = Shore::Vertical;
    int track = 0; ///< index within the shore (0..shore_size-1)

    bool
    operator==(const QubitCoord &o) const
    {
        return row == o.row && col == o.col && shore == o.shore &&
               track == o.track;
    }
};

/** Topology family. */
enum class Kind
{
    Chimera = 0,
    Pegasus = 1,
    Zephyr = 2,
};

/** Canonical lowercase name of a topology kind. */
const char *kindName(Kind kind);

/** Parse "chimera"/"pegasus"/"zephyr" (exact, lowercase). */
std::optional<Kind> parseKind(std::string_view name);

/** Hardware graph with explicit coupler enumeration. */
class Topology
{
  public:
    /**
     * Chimera-family graph (back-compat constructor).
     * @param rows number of cell rows (M)
     * @param cols number of cell columns (N)
     * @param shore qubits per shore (L, 4 on D-Wave 2000Q)
     */
    Topology(int rows, int cols, int shore = 4)
        : Topology(Kind::Chimera, rows, cols, shore)
    {
    }

    /** Graph of the given family. */
    Topology(Kind kind, int rows, int cols, int shore = 4);

    /**
     * The process's one graph of this shape, built on first use.
     * Solvers share it instead of building their own (a 16x16
     * Chimera build costs ~0.2 ms, on every portfolio worker's
     * critical path). The cache keeps each shape for the process
     * lifetime; the largest in use is table3's 64x64 (32768 qubits).
     * Thread-safe; equal arguments return the same pointer.
     */
    static std::shared_ptr<const Topology> shared(Kind kind, int rows,
                                                  int cols, int shore);

    /** The D-Wave 2000Q topology: 16x16 cells, shore 4. */
    static Topology dwave2000q() { return {16, 16, 4}; }

    /** Chimera graph of the given cell grid. */
    static Topology
    chimera(int rows, int cols, int shore = 4)
    {
        return {Kind::Chimera, rows, cols, shore};
    }

    /** Pegasus-style graph of the given cell grid. */
    static Topology
    pegasus(int rows, int cols, int shore = 4)
    {
        return {Kind::Pegasus, rows, cols, shore};
    }

    /** Zephyr-style graph of the given cell grid. */
    static Topology
    zephyr(int rows, int cols, int shore = 4)
    {
        return {Kind::Zephyr, rows, cols, shore};
    }

    Kind kind() const { return kind_; }
    const char *name() const { return kindName(kind_); }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int shore() const { return shore_; }

    /**
     * Stable per-instance identity for memoization keys: unique
     * across all graphs ever constructed in the process (never
     * reused, unlike an address), and shared by copies — which have
     * identical topology, so a memo hit through a copy is safe.
     */
    std::uint64_t uid() const { return uid_; }

    /** @return total number of qubits (rows*cols*2*shore). */
    int numQubits() const { return rows_ * cols_ * 2 * shore_; }

    /** @return total number of couplers. */
    int numCouplers() const { return static_cast<int>(edges_.size()); }

    /** Encode a coordinate into a dense qubit id. */
    int qubitId(int row, int col, Shore shore, int track) const;

    /** Decode a qubit id. */
    QubitCoord coord(int qubit) const;

    /** @return true if @p a and @p b share a coupler. */
    bool connected(int a, int b) const;

    /** Adjacency list of @p qubit. */
    const std::vector<int> &neighbors(int qubit) const
    {
        return adjacency_[qubit];
    }

    /** All couplers as (a, b) with a < b. */
    const std::vector<std::pair<int, int>> &edges() const
    {
        return edges_;
    }

    // ------------------------------------------------------------------
    // Line (crossbar) view used by the fast embedder
    // ------------------------------------------------------------------

    /** @return the number of vertical lines (cols * shore). */
    int numVerticalLines() const { return cols_ * shore_; }

    /** @return the number of horizontal lines (rows * shore). */
    int numHorizontalLines() const { return rows_ * shore_; }

    /** Qubit of vertical line @p line at cell row @p row. */
    int verticalLineQubit(int line, int row) const;

    /** Qubit of horizontal line @p line at cell column @p col. */
    int horizontalLineQubit(int line, int col) const;

    /** Cell column a vertical line runs through. */
    int verticalLineColumn(int line) const { return line / shore_; }

    /** Cell row a horizontal line runs through. */
    int horizontalLineRow(int line) const { return line / shore_; }

    /**
     * Maximum cell-index step between consecutive qubits of a
     * connected chain along one line: 1 on Chimera (lines are simple
     * chains), 2 on Pegasus (skip couplers bridge one unused cell),
     * 3 on Zephyr (skip-3 couplers bridge two). The embedder uses
     * this both to thin chains and to relax the separation margin
     * between segments sharing a line.
     */
    int
    lineReach() const
    {
        switch (kind_) {
        case Kind::Zephyr:
            return 3;
        case Kind::Pegasus:
            return 2;
        case Kind::Chimera:
            break;
        }
        return 1;
    }

    /**
     * Whether the fabric has odd couplers pairing tracks (2t, 2t+1)
     * of a shore inside each cell (Pegasus and Zephyr; Chimera does
     * not). When true, every cell couples horizontalLinePartner()
     * lines at each column they share.
     */
    bool hasOddCouplers() const { return kind_ != Kind::Chimera; }

    /**
     * The horizontal line odd-coupled to @p line (same cell row,
     * partner track of the (2t, 2t+1) pair), or -1 when the track
     * is unpaired (odd shore tail) or the family has no odd
     * couplers.
     */
    int
    horizontalLinePartner(int line) const
    {
        const int track = line % shore_;
        if (!hasOddCouplers() || (track | 1) >= shore_)
            return -1;
        return line - track + (track ^ 1);
    }

  private:
    Kind kind_;
    int rows_, cols_, shore_;
    std::uint64_t uid_ = 0;
    std::vector<std::vector<int>> adjacency_;
    std::vector<std::pair<int, int>> edges_;
};

} // namespace hyqsat::topology

#endif // HYQSAT_TOPOLOGY_TOPOLOGY_H
