#include "embed/embedding.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace hyqsat::embed {

std::optional<std::pair<int, int>>
Embedding::findCoupler(const topology::Topology &graph, int u,
                       int v) const
{
    const auto &cv = chains_[v];
    const std::unordered_set<int> in_v(cv.begin(), cv.end());
    for (int qu : chains_[u]) {
        for (int nb : graph.neighbors(qu)) {
            if (in_v.count(nb))
                return std::make_pair(qu, nb);
        }
    }
    return std::nullopt;
}

bool
Embedding::isValid(const topology::Topology &graph,
                   const std::vector<std::pair<int, int>> &problem_edges,
                   std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    // 1 & 2: non-empty, disjoint chains.
    std::unordered_map<int, int> owner;
    for (int n = 0; n < numNodes(); ++n) {
        if (chains_[n].empty())
            return fail("node " + std::to_string(n) + " has empty chain");
        for (int q : chains_[n]) {
            if (q < 0 || q >= graph.numQubits())
                return fail("qubit id out of range in chain " +
                            std::to_string(n));
            const auto [it, fresh] = owner.emplace(q, n);
            if (!fresh) {
                return fail("qubit " + std::to_string(q) +
                            " shared by chains " +
                            std::to_string(it->second) + " and " +
                            std::to_string(n));
            }
        }
    }

    // 3: connectivity of each chain (BFS inside the chain).
    for (int n = 0; n < numNodes(); ++n) {
        const auto &c = chains_[n];
        const std::unordered_set<int> members(c.begin(), c.end());
        std::vector<int> stack{c.front()};
        std::unordered_set<int> seen{c.front()};
        while (!stack.empty()) {
            const int q = stack.back();
            stack.pop_back();
            for (int nb : graph.neighbors(q)) {
                if (members.count(nb) && !seen.count(nb)) {
                    seen.insert(nb);
                    stack.push_back(nb);
                }
            }
        }
        if (seen.size() != members.size())
            return fail("chain " + std::to_string(n) + " is disconnected");
    }

    // 4: every problem edge has a coupler.
    for (const auto &[u, v] : problem_edges) {
        if (u < 0 || u >= numNodes() || v < 0 || v >= numNodes())
            return fail("problem edge references unknown node");
        if (!findCoupler(graph, u, v)) {
            return fail("no coupler for problem edge (" +
                        std::to_string(u) + ", " + std::to_string(v) +
                        ")");
        }
    }
    return true;
}

int
Embedding::totalQubits() const
{
    int total = 0;
    for (const auto &c : chains_)
        total += static_cast<int>(c.size());
    return total;
}

double
Embedding::averageChainLength() const
{
    if (chains_.empty())
        return 0.0;
    return static_cast<double>(totalQubits()) /
           static_cast<double>(chains_.size());
}

int
Embedding::maxChainLength() const
{
    int longest = 0;
    for (const auto &c : chains_)
        longest = std::max(longest, static_cast<int>(c.size()));
    return longest;
}

} // namespace hyqsat::embed
