// Flat arena for materialized k-cliques.
//
// Only the algorithms that *must* hold every clique (GC, Algorithm 2, and
// the exact OPT baseline) use this; storing per-clique std::vectors would
// triple the footprint and shred the cache. One contiguous NodeId array, k
// ids per clique, index = clique id.

#ifndef DKC_CLIQUE_CLIQUE_STORE_H_
#define DKC_CLIQUE_CLIQUE_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dkc {

/// Dense id of a materialized clique within one CliqueStore.
using CliqueId = uint32_t;

class CliqueStore {
 public:
  explicit CliqueStore(int k) : k_(k) {}

  int k() const { return k_; }
  CliqueId size() const { return static_cast<CliqueId>(nodes_.size() / k_); }
  bool empty() const { return nodes_.empty(); }

  /// Append a clique; `nodes` must contain exactly k ids.
  CliqueId Add(std::span<const NodeId> nodes) {
    nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
    return static_cast<CliqueId>(size() - 1);
  }

  /// Append cliques [begin, end) of `src` (same k) in one bulk copy.
  void AddRange(const CliqueStore& src, CliqueId begin, CliqueId end) {
    const size_t k = static_cast<size_t>(k_);
    nodes_.insert(nodes_.end(), src.nodes_.begin() + begin * k,
                  src.nodes_.begin() + end * k);
  }

  std::span<const NodeId> Get(CliqueId id) const {
    return {nodes_.data() + static_cast<size_t>(id) * k_,
            static_cast<size_t>(k_)};
  }

  void Reserve(size_t num_cliques) {
    nodes_.reserve(num_cliques * static_cast<size_t>(k_));
  }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(nodes_.capacity() * sizeof(NodeId));
  }

 private:
  int k_;
  std::vector<NodeId> nodes_;
};

}  // namespace dkc

#endif  // DKC_CLIQUE_CLIQUE_STORE_H_
