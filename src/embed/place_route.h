/**
 * @file
 * Place-and-route embedder in the style of Bian et al. 2017 ([8] in
 * the paper): nodes are greedily placed near their already-placed
 * neighbours, then every problem edge is routed as a BFS path
 * through free qubits, extending one endpoint's chain. There is no
 * iterative repair, so the scheme is slower per clause and saturates
 * earlier than Minorminer - matching its Fig. 13 behaviour.
 */

#ifndef HYQSAT_EMBED_PLACE_ROUTE_H
#define HYQSAT_EMBED_PLACE_ROUTE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "embed/embedding.h"
#include "topology/topology.h"

namespace hyqsat::embed {

/** P&R options. */
struct PlaceRouteOptions
{
    /** Give up beyond this wall-clock budget (seconds). */
    double timeout_seconds = 300.0;

    /** Fresh-randomness attempts before giving up. */
    int attempts = 3;

    std::uint64_t seed = 0x9e37a11c;
};

/** One-shot place-and-route embedder. */
class PlaceRouteEmbedder
{
  public:
    PlaceRouteEmbedder(const topology::Topology &graph,
                       const PlaceRouteOptions &opts = {});

    /** Embed a problem graph; succeeds only if every edge routes. */
    EmbedResult embed(int num_nodes,
                      const std::vector<std::pair<int, int>> &edges);

  private:
    EmbedResult tryOnce(int num_nodes,
                        const std::vector<std::pair<int, int>> &edges,
                        std::uint64_t seed, double deadline_seconds);

    const topology::Topology &graph_;
    PlaceRouteOptions opts_;
};

} // namespace hyqsat::embed

#endif // HYQSAT_EMBED_PLACE_ROUTE_H
