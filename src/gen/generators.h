// Synthetic graph generators.
//
// Two roles:
//  * the Watts–Strogatz model reproduces the paper's Section VI-D synthetic
//    scalability study verbatim (n = 1M, average degree 8..64 in the paper;
//    scaled down by default here);
//  * the other models stand in for the SNAP/KONECT datasets that are not
//    available offline: Barabási–Albert gives the heavy-tailed degree
//    distribution of social graphs, the planted-clique model gives
//    instances with a *known* optimal disjoint k-clique packing for
//    exactness tests.
//
// All generators are deterministic functions of their seed.

#ifndef DKC_GEN_GENERATORS_H_
#define DKC_GEN_GENERATORS_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace dkc {

/// Watts–Strogatz small-world graph [43]: ring lattice over n nodes where
/// each node connects to its `degree` nearest neighbors (`degree` even),
/// then each edge endpoint is rewired with probability `beta`. High
/// clustering at low beta => rich in k-cliques, like social networks.
StatusOr<Graph> WattsStrogatz(NodeId n, Count degree, double beta, Rng& rng);

/// Erdős–Rényi G(n, p): each of the n(n-1)/2 edges present independently
/// with probability p. Sparse-case generation via geometric skipping, so
/// cost is O(n + m), not O(n^2).
StatusOr<Graph> ErdosRenyi(NodeId n, double p, Rng& rng);

/// Barabási–Albert preferential attachment: start from a clique on
/// `attach + 1` nodes, then each new node attaches to `attach` distinct
/// existing nodes chosen proportionally to degree.
StatusOr<Graph> BarabasiAlbert(NodeId n, Count attach, Rng& rng);

struct PlantedCliqueSpec {
  NodeId num_cliques = 10;   // disjoint k-cliques planted
  int k = 4;                 // clique size
  NodeId filler_nodes = 50;  // extra nodes outside every planted clique
  double noise_p = 0.0;      // additional ER noise edges on top
  bool shuffle_ids = true;   // permute node ids so structure isn't positional
};

struct PlantedCliqueGraph {
  Graph graph;
  /// The planted packing size (== spec.num_cliques). With noise_p == 0 and
  /// spare filler edges below clique density, this is the exact optimum.
  NodeId planted_count = 0;
};

/// Disjoint k-cliques plus sparse filler: ground-truth instances for
/// correctness tests. With noise_p == 0 the filler part is a random tree
/// (clique-free for k >= 3), so the planted packing is the unique optimum
/// size.
StatusOr<PlantedCliqueGraph> PlantedCliques(const PlantedCliqueSpec& spec,
                                            Rng& rng);

struct PlantedPartitionSpec {
  NodeId num_communities = 50;
  NodeId community_size = 40;
  double p_in = 0.3;    // edge probability inside a community
  double p_out = 0.001; // edge probability across communities
};

/// Planted-partition (stochastic block) model: dense communities, sparse
/// cross edges — the "communities of friends" structure the paper's teaming
/// application runs on. Cliques concentrate inside communities, which makes
/// the clique-score ordering's advantage over first-fit visible.
StatusOr<Graph> PlantedPartition(const PlantedPartitionSpec& spec, Rng& rng);

}  // namespace dkc

#endif  // DKC_GEN_GENERATORS_H_
