// Sorted-set intersection and the word-level kernel-row primitives.
//
// Design note — one scalar path per primitive
// -------------------------------------------
// IntersectSorted is the merge every sorted-merge recursion funnels through
// (the kernel's fallback for >4096-node universes, plus the few callers
// that intersect adjacency lists directly). Two regimes:
//
//   * extreme size skew (>= kGallopSkew): galloping scan, O(small * log);
//   * otherwise: the classic three-way scalar merge.
//
// The row primitives are the other half of the kernel hot path, all inline
// loops the compiler sees through: AndPopcountWords fuses the multi-word
// cand &= row step with its popcount reduction, PopcountWords reduces a
// candidate row, and GatherValidLocalIds compacts the epoch-valid local ids
// of a neighbor list. The gather is branch-free — every neighbor's local id
// is stored and the cursor advances by the stamp comparison — so
// MaterializeRow's per-neighbor, data-dependent stamp check never
// mispredicts. Per-root universes on degeneracy-oriented graphs stay far
// below the widths where wider vector kernels pay for themselves.
//
// Aliasing: `out` must not alias the storage behind `a` or `b` — the merge
// writes `out` while reading the inputs, so an aliased call reads clobbered
// memory. Debug builds assert this.

#ifndef DKC_CLIQUE_INTERSECT_H_
#define DKC_CLIQUE_INTERSECT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dkc {

/// Size ratio at which IntersectSorted switches from merging to galloping.
inline constexpr size_t kGallopSkew = 32;

/// out = a ∩ b for sorted unique spans. `out` is overwritten and must not
/// alias the storage behind `a` or `b` (asserted in debug builds). Switches
/// to a galloping (exponential-probe) scan when the inputs differ in size
/// by kGallopSkew or more; otherwise runs the three-way merge.
void IntersectSorted(std::span<const NodeId> a, std::span<const NodeId> b,
                     std::vector<NodeId>* out);

/// Fused cand-AND-row + popcount reduction over `words` 64-bit words:
/// out[i] = a[i] & b[i], returns the total popcount of out. `out` may alias
/// `a` or `b` (word-wise forward pass).
inline Count AndPopcountWords(const uint64_t* a, const uint64_t* b,
                              uint64_t* out, size_t words) {
  Count n = 0;
  for (size_t w = 0; w < words; ++w) {
    out[w] = a[w] & b[w];
    n += static_cast<Count>(std::popcount(out[w]));
  }
  return n;
}

/// Total popcount of words[0..n).
inline Count PopcountWords(const uint64_t* words, size_t n) {
  Count c = 0;
  for (size_t w = 0; w < n; ++w) {
    c += static_cast<Count>(std::popcount(words[w]));
  }
  return c;
}

/// Compacts local_of[nbrs[i]] for every i with stamps[nbrs[i]] == epoch
/// into `out` (order preserved); returns how many were valid. `out` must
/// hold n entries: every neighbor's id is stored at the cursor, which only
/// advances past the valid ones (so the write index never exceeds i).
inline size_t GatherValidLocalIds(const NodeId* nbrs, size_t n,
                                  const uint32_t* stamps, uint32_t epoch,
                                  const NodeId* local_of, NodeId* out) {
  size_t o = 0;
  for (size_t i = 0; i < n; ++i) {
    const NodeId v = nbrs[i];
    out[o] = local_of[v];
    o += stamps[v] == epoch;
  }
  return o;
}

}  // namespace dkc

#endif  // DKC_CLIQUE_INTERSECT_H_
