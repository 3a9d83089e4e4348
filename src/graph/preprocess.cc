#include "graph/preprocess.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace dkc {
namespace {

// One (k-1)-core peel pass over the node-id range [lo, hi): seeds the local
// queue with in-range nodes below `threshold` and cascades, but only
// decrements in-range neighbors. Out-of-range neighbors of dead nodes are
// buffered into `remote` (one entry per dead-node arc) for the caller to
// apply later. With [0, n) and no remote buffer this IS the serial cascade.
void PeelRange(const Graph& g, Count threshold, NodeId lo, NodeId hi,
               std::vector<Count>& degree, std::vector<uint8_t>& alive,
               std::vector<NodeId>* remote) {
  std::vector<NodeId> queue;
  for (NodeId u = lo; u < hi; ++u) {
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
      if (v < lo || v >= hi) {
        if (remote != nullptr) remote->push_back(v);
        continue;
      }
      if (alive[v] != 0 && --degree[v] < threshold) {
        alive[v] = 0;
        queue.push_back(v);
      }
    }
  }
}

// Peel driver: computes the (k-1)-core alive set, fanning out over
// contiguous node-id ranges when a pool is given (each range touches only
// its own degree/alive slice — disjoint writes), then applying the buffered
// cross-range decrements and cascading globally to the fixpoint. The peel
// is confluent — the (k-1)-core is unique and removal order never changes
// which nodes can be driven below the threshold — so both paths produce the
// identical alive set (preprocess_test asserts this per instance).
void PeelLowDegree(const Graph& g, Count threshold, ThreadPool* pool,
                   NodeId parallel_min_nodes, std::vector<uint8_t>* alive_out) {
  const NodeId n = g.num_nodes();
  std::vector<uint8_t>& alive = *alive_out;
  std::vector<Count> degree(n, 0);
  const size_t workers = pool == nullptr ? 0 : pool->num_threads();
  if (workers <= 1 || n < parallel_min_nodes) {
    PeelRange(g, threshold, 0, n, degree, alive, nullptr);
    return;
  }
  const size_t ranges = workers;
  std::vector<std::vector<NodeId>> remote(ranges);
  for (size_t r = 0; r < ranges; ++r) {
    pool->Submit([&, r] {
      const NodeId lo = static_cast<NodeId>(r * static_cast<size_t>(n) / ranges);
      const NodeId hi =
          static_cast<NodeId>((r + 1) * static_cast<size_t>(n) / ranges);
      PeelRange(g, threshold, lo, hi, degree, alive, &remote[r]);
    });
  }
  pool->Wait();
  // Serial merge: each dead node's cross-range arcs were buffered exactly
  // once, so replaying them plus a global cascade lands on the fixpoint.
  std::vector<NodeId> queue;
  for (const std::vector<NodeId>& buffered : remote) {
    for (NodeId v : buffered) {
      if (alive[v] != 0 && --degree[v] < threshold) {
        alive[v] = 0;
        queue.push_back(v);
      }
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

PreprocessResult PreprocessForKCliques(const Graph& g,
                                       const PreprocessOptions& options) {
  Timer timer;
  PreprocessResult result;
  PreprocessStats& stats = result.stats;
  const NodeId n = g.num_nodes();
  stats.nodes_before = n;
  stats.edges_before = g.num_edges();
  stats.reordered = options.reorder;

  // k < 3 has no prune rule (the library's solvers reject it anyway).
  std::vector<uint8_t> alive(n, 1);
  if (options.k >= 3) {
    PeelLowDegree(g, static_cast<Count>(options.k) - 1, options.pool,
                  options.parallel_peel_min_nodes, &alive);
  }
  const NodeId survivors =
      static_cast<NodeId>(std::count(alive.begin(), alive.end(), 1));

  if (survivors == n) {
    // Nothing peeled: the input is the pruned graph, and both modes'
    // orientation is its degeneracy order. Copy nothing.
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

  if (options.reorder) {
    result.orientation = DegeneracyOrdering(result.pruned);
  } else {
    // The original degeneracy order restricted to the survivors: pairwise
    // rank comparisons among surviving nodes — and hence the DAG
    // orientation and every DFS tie-break — match the unpruned run.
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
  }

  stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace dkc
