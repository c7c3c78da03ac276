#include "embed/minorminer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/rng.h"
#include "util/timer.h"

namespace hyqsat::embed {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One weighted Dijkstra from a chain (multi-source). */
struct ChainSearch
{
    std::vector<double> dist;
    std::vector<int> parent;

    void
    run(const topology::Topology &graph, const std::vector<int> &src,
        const std::vector<double> &qubit_cost)
    {
        const int n = graph.numQubits();
        dist.assign(n, kInf);
        parent.assign(n, -1);
        using Item = std::pair<double, int>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        for (int q : src) {
            dist[q] = 0.0;
            pq.emplace(0.0, q);
        }
        while (!pq.empty()) {
            const auto [d, q] = pq.top();
            pq.pop();
            if (d > dist[q])
                continue;
            for (int nb : graph.neighbors(q)) {
                const double nd = d + qubit_cost[nb];
                if (nd < dist[nb]) {
                    dist[nb] = nd;
                    parent[nb] = q;
                    pq.emplace(nd, nb);
                }
            }
        }
    }
};

/** Working state of one embedding attempt. */
class Attempt
{
  public:
    Attempt(const topology::Topology &graph,
            const MinorminerOptions &opts,
            const std::vector<std::vector<int>> &adj, Rng &rng)
        : graph_(graph), opts_(opts), adj_(adj), rng_(rng),
          chains_(adj.size()), usage_(graph.numQubits(), 0)
    {
    }

    /** Rip out a node's chain. */
    void
    ripOut(int node)
    {
        for (int q : chains_[node])
            --usage_[q];
        chains_[node].clear();
    }

    /**
     * (Re)build node's vertex model: root minimizing the summed
     * weighted distances to every embedded neighbour's chain, then
     * grow a tree of cheapest paths, then trim unnecessary leaves.
     */
    void
    place(int node)
    {
        const int nq = graph_.numQubits();
        std::vector<double> cost(nq);
        for (int q = 0; q < nq; ++q) {
            cost[q] = std::pow(opts_.weight_base, usage_[q]) *
                      (1.0 + 0.05 * rng_.uniform());
        }

        std::vector<ChainSearch> searches;
        for (int nb : adj_[node]) {
            if (chains_[nb].empty())
                continue;
            searches.emplace_back();
            searches.back().run(graph_, chains_[nb], cost);
        }

        int root = -1;
        double best = kInf;
        if (searches.empty()) {
            for (int q = 0; q < nq; ++q) {
                const double c =
                    cost[q] +
                    1e-9 * static_cast<double>(rng_.below(1024));
                if (c < best) {
                    best = c;
                    root = q;
                }
            }
        } else {
            for (int q = 0; q < nq; ++q) {
                double total = cost[q];
                for (const auto &s : searches) {
                    if (s.dist[q] == kInf) {
                        total = kInf;
                        break;
                    }
                    total += s.dist[q];
                }
                if (total < best) {
                    best = total;
                    root = q;
                }
            }
            if (root == -1) {
                // Disconnected hardware region: fall back to any
                // cheapest qubit so the attempt fails loudly later.
                for (int q = 0; q < nq; ++q) {
                    if (cost[q] < best) {
                        best = cost[q];
                        root = q;
                    }
                }
            }
        }

        auto &chain = chains_[node];
        std::vector<char> in_chain(nq, 0);
        auto add = [&](int q) {
            if (!in_chain[q]) {
                in_chain[q] = 1;
                chain.push_back(q);
                ++usage_[q];
            }
        };
        add(root);

        // Grow a tree: connect the nearest neighbour chain first and
        // let later paths start anywhere on the growing chain.
        std::sort(searches.begin(), searches.end(),
                  [&](const ChainSearch &a, const ChainSearch &b) {
                      return a.dist[root] < b.dist[root];
                  });
        for (const auto &s : searches) {
            int entry = -1;
            double entry_d = kInf;
            for (int q : chain) {
                if (s.dist[q] < entry_d) {
                    entry_d = s.dist[q];
                    entry = q;
                }
            }
            int q = entry;
            while (q != -1 && s.parent[q] != -1) {
                q = s.parent[q];
                if (s.dist[q] == 0.0)
                    break; // reached the neighbour's chain
                add(q);
            }
        }

        trim(node, root, in_chain);
    }

    /** @return total overused qubit slots. */
    int
    overlap() const
    {
        int over = 0;
        for (int u : usage_)
            if (u > 1)
                over += u - 1;
        return over;
    }

    const std::vector<std::vector<int>> &chains() const { return chains_; }

    /** Nodes whose chains touch an overused qubit. */
    std::vector<int>
    overlappingNodes() const
    {
        std::vector<int> out;
        for (std::size_t n = 0; n < chains_.size(); ++n) {
            for (int q : chains_[n]) {
                if (usage_[q] > 1) {
                    out.push_back(static_cast<int>(n));
                    break;
                }
            }
        }
        return out;
    }

  private:
    /**
     * Remove chain leaves that are not required to keep a contact
     * with every embedded neighbour chain.
     */
    void
    trim(int node, int root, std::vector<char> &in_chain)
    {
        auto &chain = chains_[node];
        const int nq = graph_.numQubits();

        std::vector<std::vector<int>> contacts;
        std::vector<char> scratch(nq, 0);
        for (int nb : adj_[node]) {
            if (chains_[nb].empty())
                continue;
            for (int q : chains_[nb])
                scratch[q] = 1;
            std::vector<int> cs;
            for (int q : chain) {
                for (int x : graph_.neighbors(q)) {
                    if (scratch[x]) {
                        cs.push_back(q);
                        break;
                    }
                }
            }
            for (int q : chains_[nb])
                scratch[q] = 0;
            contacts.push_back(std::move(cs));
        }

        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t i = 0; i < chain.size(); ++i) {
                const int q = chain[i];
                if (q == root)
                    continue;
                int degree = 0;
                for (int x : graph_.neighbors(q))
                    degree += in_chain[x];
                if (degree != 1)
                    continue; // only prune leaves
                bool needed = false;
                for (const auto &cs : contacts) {
                    int live = 0;
                    bool has = false;
                    for (int c : cs) {
                        if (in_chain[c]) {
                            ++live;
                            has |= (c == q);
                        }
                    }
                    if (has && live <= 1) {
                        needed = true;
                        break;
                    }
                }
                if (needed)
                    continue;
                in_chain[q] = 0;
                --usage_[q];
                chain[i] = chain.back();
                chain.pop_back();
                changed = true;
                --i;
            }
        }
    }

    const topology::Topology &graph_;
    const MinorminerOptions &opts_;
    const std::vector<std::vector<int>> &adj_;
    Rng &rng_;
    std::vector<std::vector<int>> chains_;
    std::vector<int> usage_;
};

} // namespace

MinorminerEmbedder::MinorminerEmbedder(const topology::Topology &graph,
                                       const MinorminerOptions &opts)
    : graph_(graph), opts_(opts)
{
}

EmbedResult
MinorminerEmbedder::embed(int num_nodes,
                          const std::vector<std::pair<int, int>> &edges)
{
    Timer timer;
    Rng rng(opts_.seed);

    std::vector<std::vector<int>> adj(num_nodes);
    for (const auto &[u, v] : edges) {
        adj[u].push_back(v);
        adj[v].push_back(u);
    }

    // Problem-graph BFS order gives the initial placement locality.
    std::vector<int> bfs_order;
    {
        std::vector<char> visited(num_nodes, 0);
        for (int start = 0; start < num_nodes; ++start) {
            if (visited[start])
                continue;
            visited[start] = 1;
            bfs_order.push_back(start);
            for (std::size_t head = bfs_order.size() - 1;
                 head < bfs_order.size(); ++head) {
                for (int nb : adj[bfs_order[head]]) {
                    if (!visited[nb]) {
                        visited[nb] = 1;
                        bfs_order.push_back(nb);
                    }
                }
            }
        }
    }

    EmbedResult result;
    for (int restart = 0; restart < std::max(opts_.restarts, 1);
         ++restart) {
        Attempt attempt(graph_, opts_, adj, rng);
        for (int node : bfs_order)
            attempt.place(node);

        std::vector<int> order(num_nodes);
        for (int i = 0; i < num_nodes; ++i)
            order[i] = i;

        int best_overlap = attempt.overlap();
        int stall = 0;
        for (int pass = 0;
             pass < opts_.max_passes && attempt.overlap() > 0; ++pass) {
            if (timer.seconds() > opts_.timeout_seconds) {
                result.seconds = timer.seconds();
                return result;
            }
            if (stall >= 4) {
                // Shake: rip every overlapping chain plus a random
                // fifth of the rest, then re-place them.
                std::vector<char> rip(num_nodes, 0);
                for (int n : attempt.overlappingNodes())
                    rip[n] = 1;
                for (int n = 0; n < num_nodes; ++n)
                    if (rng.chance(0.2))
                        rip[n] = 1;
                std::vector<int> torip;
                for (int n = 0; n < num_nodes; ++n) {
                    if (rip[n]) {
                        attempt.ripOut(n);
                        torip.push_back(n);
                    }
                }
                rng.shuffle(torip);
                for (int n : torip)
                    attempt.place(n);
                stall = 0;
            } else {
                rng.shuffle(order);
                for (int n : order) {
                    attempt.ripOut(n);
                    attempt.place(n);
                }
            }
            const int over = attempt.overlap();
            if (over < best_overlap) {
                best_overlap = over;
                stall = 0;
            } else {
                ++stall;
            }
        }

        if (attempt.overlap() == 0) {
            result.success = true;
            result.embedding = Embedding(num_nodes);
            for (int n = 0; n < num_nodes; ++n)
                result.embedding.chain(n) = attempt.chains()[n];
            result.seconds = timer.seconds();
            return result;
        }
    }

    result.seconds = timer.seconds();
    return result;
}

} // namespace hyqsat::embed
