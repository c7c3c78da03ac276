#include "embed/place_route.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "util/rng.h"
#include "util/timer.h"

namespace hyqsat::embed {

namespace {

/** Cell-grid Manhattan distance between two qubits. */
int
cellDistance(const topology::Topology &g, int a, int b)
{
    const auto ca = g.coord(a);
    const auto cb = g.coord(b);
    return std::abs(ca.row - cb.row) + std::abs(ca.col - cb.col);
}

} // namespace

PlaceRouteEmbedder::PlaceRouteEmbedder(const topology::Topology &graph,
                                       const PlaceRouteOptions &opts)
    : graph_(graph), opts_(opts)
{
}

EmbedResult
PlaceRouteEmbedder::embed(int num_nodes,
                          const std::vector<std::pair<int, int>> &edges)
{
    Timer timer;
    EmbedResult result;
    for (int attempt = 0; attempt < std::max(opts_.attempts, 1);
         ++attempt) {
        const double remaining = opts_.timeout_seconds - timer.seconds();
        if (remaining <= 0)
            break;
        EmbedResult r = tryOnce(num_nodes, edges,
                                opts_.seed + 0x9e3779b9ull * attempt,
                                remaining);
        r.seconds += result.seconds;
        result = std::move(r);
        if (result.success)
            break;
    }
    result.seconds = timer.seconds();
    return result;
}

EmbedResult
PlaceRouteEmbedder::tryOnce(int num_nodes,
                            const std::vector<std::pair<int, int>> &edges,
                            std::uint64_t seed, double deadline_seconds)
{
    Timer timer;
    Rng rng(seed);
    const int nq = graph_.numQubits();

    std::vector<std::vector<int>> adj(num_nodes);
    for (const auto &[u, v] : edges) {
        adj[u].push_back(v);
        adj[v].push_back(u);
    }

    EmbedResult result;
    std::vector<int> owner(nq, -1); // qubit -> node, -1 free
    std::vector<std::vector<int>> chains(num_nodes);
    std::vector<int> cell_load(graph_.rows() * graph_.cols(), 0);
    auto cellOf = [&](int q) {
        const auto c = graph_.coord(q);
        return c.row * graph_.cols() + c.col;
    };
    auto claim = [&](int q, int node) {
        owner[q] = node;
        chains[node].push_back(q);
        ++cell_load[cellOf(q)];
    };

    // Process nodes in BFS order over the problem graph; each node is
    // placed near its already-placed neighbours and its edges to them
    // are routed immediately, so later placements cannot wall in an
    // unrouted connection.
    std::vector<int> order;
    {
        std::vector<char> visited(num_nodes, 0);
        for (int start = 0; start < num_nodes; ++start) {
            if (visited[start])
                continue;
            visited[start] = 1;
            order.push_back(start);
            for (std::size_t head = order.size() - 1;
                 head < order.size(); ++head) {
                for (int nb : adj[order[head]]) {
                    if (!visited[nb]) {
                        visited[nb] = 1;
                        order.push_back(nb);
                    }
                }
            }
        }
    }

    for (int node : order) {
        if (timer.seconds() > deadline_seconds) {
            result.seconds = timer.seconds();
            return result;
        }

        // --- Placement: full scan minimizing distance to placed
        // neighbours plus congestion and enclosure penalties (the
        // scheme's "time-consuming heuristic").
        int best_q = -1;
        double best_cost = std::numeric_limits<double>::infinity();
        for (int q = 0; q < nq; ++q) {
            if (owner[q] != -1)
                continue;
            int free_nb = 0;
            for (int nb : graph_.neighbors(q))
                free_nb += (owner[nb] == -1);
            if (free_nb <
                std::min(static_cast<int>(adj[node].size()), 2)) {
                continue; // enclosed pocket: unusable as a root
            }
            double c = 1e-9 * static_cast<double>(rng.below(1024)) +
                       0.75 * cell_load[cellOf(q)] +
                       0.5 * (6 - free_nb);
            for (int nb : adj[node]) {
                if (!chains[nb].empty())
                    c += cellDistance(graph_, q, chains[nb].front());
            }
            if (c < best_cost) {
                best_cost = c;
                best_q = q;
            }
        }
        if (best_q == -1) {
            result.seconds = timer.seconds();
            return result;
        }
        claim(best_q, node);

        // Pre-size the chain to the node's degree: a single root has
        // at most 6 couplers, so hubs get a connected patch of spare
        // qubits as routing surface.
        const int want =
            1 + (static_cast<int>(adj[node].size()) + 3) / 4;
        std::deque<int> frontier{best_q};
        while (static_cast<int>(chains[node].size()) < want &&
               !frontier.empty()) {
            const int q = frontier.front();
            frontier.pop_front();
            for (int nb : graph_.neighbors(q)) {
                if (owner[nb] == -1 &&
                    static_cast<int>(chains[node].size()) < want) {
                    claim(nb, node);
                    frontier.push_back(nb);
                }
            }
        }

        // --- Immediate routing to every already-placed neighbour.
        for (int v : adj[node]) {
            if (chains[v].empty() || v == node)
                continue;
            const int u = node;

            bool adjacent = false;
            for (int qu : chains[u]) {
                for (int nb : graph_.neighbors(qu)) {
                    if (owner[nb] == v) {
                        adjacent = true;
                        break;
                    }
                }
                if (adjacent)
                    break;
            }
            if (adjacent)
                continue;

            std::vector<int> parent(nq, -2); // -2 unvisited
            std::deque<int> queue;
            for (int q : chains[u]) {
                parent[q] = -1;
                queue.push_back(q);
            }
            int hit = -1;
            while (!queue.empty() && hit == -1) {
                const int q = queue.front();
                queue.pop_front();
                for (int nb : graph_.neighbors(q)) {
                    if (parent[nb] != -2)
                        continue;
                    if (owner[nb] == v) {
                        parent[nb] = q;
                        hit = nb;
                        break;
                    }
                    if (owner[nb] == -1) {
                        parent[nb] = q;
                        queue.push_back(nb);
                    }
                }
            }
            if (hit == -1) {
                result.seconds = timer.seconds();
                return result; // unroutable: P&R gives up
            }
            // Split the free interior path at its midpoint: the half
            // nearer v extends v's chain, the rest extends u's, so
            // both sides gain surface for later routes.
            std::vector<int> path;
            for (int q = parent[hit]; q != -1 && owner[q] == -1;
                 q = parent[q]) {
                path.push_back(q); // ordered from v's side towards u
            }
            const std::size_t v_share = path.size() / 2;
            for (std::size_t i = 0; i < path.size(); ++i)
                claim(path[i], i < v_share ? v : u);
        }
    }

    result.seconds = timer.seconds();
    result.success = true;
    result.embedding = Embedding(num_nodes);
    for (int n = 0; n < num_nodes; ++n)
        result.embedding.chain(n) = chains[n];
    return result;
}

} // namespace hyqsat::embed
