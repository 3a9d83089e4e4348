#include "graph/dag.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace dkc {

Dag::Dag(const Graph& g, Ordering ordering, ThreadPool* pool)
    : ordering_(std::move(ordering)) {
  const NodeId n = g.num_nodes();
  const NodeId* rank = ordering_.rank.data();
  offsets_.assign(n + 1, 0);
  // Out-degrees into offsets_[u + 1], each chunk writing only its own
  // nodes' slots; the max folds over per-worker maxima.
  ParallelChunks(
      pool, n, Deadline::Unlimited(), [] { return Count{0}; },
      [&](size_t, NodeId begin, NodeId end, Count* max_out) {
        for (NodeId u = begin; u < end; ++u) {
          Count out_deg = 0;
          for (NodeId v : g.Neighbors(u)) out_deg += rank[v] < rank[u];
          offsets_[u + 1] = out_deg;
          *max_out = std::max(*max_out, out_deg);
        }
        return true;
      },
      [&](Count* max_out) {
        max_out_degree_ = std::max(max_out_degree_, *max_out);
      });
  for (NodeId u = 0; u < n; ++u) offsets_[u + 1] += offsets_[u];

  out_.resize(offsets_[n]);
  ParallelChunks(
      pool, n, Deadline::Unlimited(), [] { return 0; },
      [&](size_t, NodeId begin, NodeId end, int*) {
        for (NodeId u = begin; u < end; ++u) {
          Count cursor = offsets_[u];
          // Graph neighbor lists are sorted by id, and we filter in order,
          // so each out-list is already sorted by id; no per-node re-sort.
          for (NodeId v : g.Neighbors(u)) {
            if (rank[v] < rank[u]) out_[cursor++] = v;
          }
        }
        return true;
      },
      [](int*) {});
}

void Dag::InducedOutNeighborhood(NodeId u, const uint8_t* valid,
                                 std::vector<NodeId>* out) const {
  for (NodeId v : OutNeighbors(u)) {
    if (valid == nullptr || valid[v] != 0) out->push_back(v);
  }
}

}  // namespace dkc
