// Directed acyclic orientation of a Graph along a total node ordering.
//
// Following the k-clique listing literature (Section III of the paper), an
// undirected graph plus a total ordering pi induces a DAG where each edge
// points from the higher-ranked endpoint to the lower-ranked one, i.e. the
// out-neighbors N+(u) of u are exactly its neighbors that precede u in pi.
// Every k-clique then appears exactly once as {u} ∪ (a (k-1)-clique inside
// N+(u)) with u the clique's highest-ranked node, which is the property all
// solvers in this library rely on.

#ifndef DKC_GRAPH_DAG_H_
#define DKC_GRAPH_DAG_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/ordering.h"

namespace dkc {

class ThreadPool;

class Dag {
 public:
  Dag() = default;

  /// Orients `g` along `ordering`. Out-neighbor lists are sorted by node id
  /// so clique recursions can intersect them with two-pointer merges. With
  /// a `pool`, the out-degree count and the out-list fill run on it via
  /// ParallelChunks (the prefix sum between them stays serial); the result
  /// is identical with or without one.
  Dag(const Graph& g, Ordering ordering, ThreadPool* pool = nullptr);

  NodeId num_nodes() const {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Out-neighbors (lower-ranked neighbors) of `u`, sorted by node id.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_.data() + offsets_[u], out_.data() + offsets_[u + 1]};
  }

  Count OutDegree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }

  Count MaxOutDegree() const { return max_out_degree_; }

  /// rank[v] = position of v in the orientation order.
  const Ordering& ordering() const { return ordering_; }

  /// True iff rank(u) > rank(v), i.e. the edge (u,v) would point u -> v.
  bool Precedes(NodeId v, NodeId u) const {
    return ordering_.rank[v] < ordering_.rank[u];
  }

  /// Appends to `out` the out-neighbors of `u` with non-zero `valid` (all
  /// of them when `valid` is null), in ascending node-id order: the
  /// universe a per-root NeighborhoodKernel is built over.
  void InducedOutNeighborhood(NodeId u, const uint8_t* valid,
                              std::vector<NodeId>* out) const;

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(offsets_.capacity() * sizeof(Count) +
                                out_.capacity() * sizeof(NodeId) +
                                ordering_.rank.capacity() * sizeof(NodeId) +
                                ordering_.nodes.capacity() * sizeof(NodeId));
  }

 private:
  std::vector<Count> offsets_;
  std::vector<NodeId> out_;
  Ordering ordering_;
  Count max_out_degree_ = 0;
};

}  // namespace dkc

#endif  // DKC_GRAPH_DAG_H_
