#include "graph/preprocess.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace dkc {
namespace {

// The (k-1)-core peel: seeds the queue with every node below `threshold`
// and cascades, marking the peeled nodes dead in `alive`.
void PeelLowDegree(const Graph& g, Count threshold,
                   std::vector<uint8_t>& alive) {
  const NodeId n = g.num_nodes();
  std::vector<Count> degree(n, 0);
  std::vector<NodeId> queue;
  for (NodeId u = 0; u < n; ++u) {
    degree[u] = g.Degree(u);
    if (degree[u] < threshold) {
      alive[u] = 0;
      queue.push_back(u);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.back();
    queue.pop_back();
    for (NodeId v : g.Neighbors(u)) {
      if (alive[v] != 0 && --degree[v] < threshold) {
        alive[v] = 0;
        queue.push_back(v);
      }
    }
  }
}

}  // namespace

PreprocessResult PreprocessForKCliques(const Graph& g, int k) {
  Timer timer;
  PreprocessResult result;
  PreprocessStats& stats = result.stats;
  const NodeId n = g.num_nodes();
  stats.nodes_before = n;
  stats.edges_before = g.num_edges();

  // k < 3 has no prune rule (the library's solvers reject it anyway).
  std::vector<uint8_t> alive(n, 1);
  if (k >= 3) {
    PeelLowDegree(g, static_cast<Count>(k) - 1, alive);
  }
  const NodeId survivors =
      static_cast<NodeId>(std::count(alive.begin(), alive.end(), 1));

  if (survivors == n) {
    // Nothing peeled: the input is the pruned graph, oriented by its own
    // degeneracy order. Copy nothing.
    stats.nodes_after = n;
    stats.edges_after = g.num_edges();
    result.orientation = DegeneracyOrdering(g);
    stats.elapsed_ms = timer.ElapsedMillis();
    return result;
  }

  // Compact CSR with the ascending (order-preserving) remap: every row
  // stays sorted, and the survivors keep all their mutual edges.
  result.old_to_new.assign(n, kInvalidNode);
  result.new_to_old.reserve(survivors);
  for (NodeId u = 0; u < n; ++u) {
    if (alive[u] != 0) {
      result.old_to_new[u] = static_cast<NodeId>(result.new_to_old.size());
      result.new_to_old.push_back(u);
    }
  }
  std::vector<Count> offsets(survivors + 1, 0);
  std::vector<NodeId> neighbors;
  for (NodeId pu = 0; pu < survivors; ++pu) {
    for (NodeId v : g.Neighbors(result.new_to_old[pu])) {
      if (alive[v] != 0) neighbors.push_back(result.old_to_new[v]);
    }
    offsets[pu + 1] = neighbors.size();
  }
  result.pruned = Graph(std::move(offsets), std::move(neighbors));
  stats.nodes_after = survivors;
  stats.edges_after = result.pruned.num_edges();

  // The original degeneracy order restricted to the survivors: pairwise
  // rank comparisons among surviving nodes — and hence the DAG orientation
  // and every DFS tie-break — match the unpruned run.
  const Ordering original = DegeneracyOrdering(g);
  result.orientation.nodes.reserve(survivors);
  result.orientation.rank.assign(survivors, 0);
  for (NodeId id : original.nodes) {
    const NodeId mapped = result.old_to_new[id];
    if (mapped == kInvalidNode) continue;
    result.orientation.rank[mapped] =
        static_cast<NodeId>(result.orientation.nodes.size());
    result.orientation.nodes.push_back(mapped);
  }

  stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace dkc
