#include "topology/topology.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <tuple>

#include "util/logging.h"

namespace hyqsat::topology {

namespace {

std::uint64_t
nextGraphUid()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Chimera:
        return "chimera";
    case Kind::Pegasus:
        return "pegasus";
    case Kind::Zephyr:
        return "zephyr";
    }
    return "chimera";
}

std::optional<Kind>
parseKind(std::string_view name)
{
    if (name == "chimera")
        return Kind::Chimera;
    if (name == "pegasus")
        return Kind::Pegasus;
    if (name == "zephyr")
        return Kind::Zephyr;
    return std::nullopt;
}

std::shared_ptr<const Topology>
Topology::shared(Kind kind, int rows, int cols, int shore)
{
    static std::mutex mutex;
    static std::map<std::tuple<Kind, int, int, int>,
                    std::shared_ptr<const Topology>>
        graphs;
    std::lock_guard<std::mutex> lock(mutex);
    std::shared_ptr<const Topology> &graph =
        graphs[{kind, rows, cols, shore}];
    if (!graph)
        graph = std::make_shared<const Topology>(kind, rows, cols, shore);
    return graph;
}

Topology::Topology(Kind kind, int rows, int cols, int shore)
    : kind_(kind), rows_(rows), cols_(cols), shore_(shore),
      uid_(nextGraphUid())
{
    if (rows < 1 || cols < 1 || shore < 1)
        fatal("Topology requires positive dimensions");

    adjacency_.resize(numQubits());
    auto addEdge = [this](int a, int b) {
        if (a > b)
            std::swap(a, b);
        edges_.emplace_back(a, b);
        adjacency_[a].push_back(b);
        adjacency_[b].push_back(a);
    };

    // Chimera skeleton, shared by both families. The emission order
    // is frozen: edges() / edge slots feed memoized coefficient
    // schedules, so the Pegasus extras are appended strictly after
    // the skeleton of each cell.
    for (int r = 0; r < rows_; ++r) {
        for (int c = 0; c < cols_; ++c) {
            // Intra-cell K_{shore,shore} couplers.
            for (int kv = 0; kv < shore_; ++kv) {
                for (int kh = 0; kh < shore_; ++kh) {
                    addEdge(qubitId(r, c, Shore::Vertical, kv),
                            qubitId(r, c, Shore::Horizontal, kh));
                }
            }
            // Inter-cell vertical couplers (down the column).
            if (r + 1 < rows_) {
                for (int k = 0; k < shore_; ++k) {
                    addEdge(qubitId(r, c, Shore::Vertical, k),
                            qubitId(r + 1, c, Shore::Vertical, k));
                }
            }
            // Inter-cell horizontal couplers (along the row).
            if (c + 1 < cols_) {
                for (int k = 0; k < shore_; ++k) {
                    addEdge(qubitId(r, c, Shore::Horizontal, k),
                            qubitId(r, c + 1, Shore::Horizontal, k));
                }
            }
            if (kind_ == Kind::Chimera)
                continue;
            // Odd couplers: tracks (2t, 2t+1) of each shore paired
            // inside the cell (Pegasus and Zephyr).
            for (int t = 0; 2 * t + 1 < shore_; ++t) {
                addEdge(qubitId(r, c, Shore::Vertical, 2 * t),
                        qubitId(r, c, Shore::Vertical, 2 * t + 1));
                addEdge(qubitId(r, c, Shore::Horizontal, 2 * t),
                        qubitId(r, c, Shore::Horizontal, 2 * t + 1));
            }
            // Skip couplers: each line also reaches the cell two
            // steps away, so chains may leave every other cell free.
            if (r + 2 < rows_) {
                for (int k = 0; k < shore_; ++k) {
                    addEdge(qubitId(r, c, Shore::Vertical, k),
                            qubitId(r + 2, c, Shore::Vertical, k));
                }
            }
            if (c + 2 < cols_) {
                for (int k = 0; k < shore_; ++k) {
                    addEdge(qubitId(r, c, Shore::Horizontal, k),
                            qubitId(r, c + 2, Shore::Horizontal, k));
                }
            }
            if (kind_ != Kind::Zephyr)
                continue;
            // Zephyr's third coupler distance: each line also
            // reaches the cell three steps away, appended after the
            // Pegasus extras so the shared prefix of the emission
            // order stays frozen.
            if (r + 3 < rows_) {
                for (int k = 0; k < shore_; ++k) {
                    addEdge(qubitId(r, c, Shore::Vertical, k),
                            qubitId(r + 3, c, Shore::Vertical, k));
                }
            }
            if (c + 3 < cols_) {
                for (int k = 0; k < shore_; ++k) {
                    addEdge(qubitId(r, c, Shore::Horizontal, k),
                            qubitId(r, c + 3, Shore::Horizontal, k));
                }
            }
        }
    }
    for (auto &adj : adjacency_)
        std::sort(adj.begin(), adj.end());
}

int
Topology::qubitId(int row, int col, Shore shore, int track) const
{
    return ((row * cols_ + col) * 2 + static_cast<int>(shore)) * shore_ +
           track;
}

QubitCoord
Topology::coord(int qubit) const
{
    QubitCoord q;
    q.track = qubit % shore_;
    qubit /= shore_;
    q.shore = static_cast<Shore>(qubit % 2);
    qubit /= 2;
    q.col = qubit % cols_;
    q.row = qubit / cols_;
    return q;
}

bool
Topology::connected(int a, int b) const
{
    const auto &adj = adjacency_[a];
    return std::binary_search(adj.begin(), adj.end(), b);
}

int
Topology::verticalLineQubit(int line, int row) const
{
    const int col = line / shore_;
    const int track = line % shore_;
    return qubitId(row, col, Shore::Vertical, track);
}

int
Topology::horizontalLineQubit(int line, int col) const
{
    const int row = line / shore_;
    const int track = line % shore_;
    return qubitId(row, col, Shore::Horizontal, track);
}

} // namespace hyqsat::topology
