#include "clique/intersect.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace dkc {
namespace {

// Intersects by exponential probing: for each element of the small list,
// gallop forward in the large one. O(|small| * log(|large|/|small|)) — the
// win over any merge once the size skew passes kGallopSkew.
void IntersectGalloping(std::span<const NodeId> small,
                        std::span<const NodeId> large,
                        std::vector<NodeId>* out) {
  size_t lo = 0;
  for (NodeId x : small) {
    if (lo >= large.size()) break;
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < x) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    const size_t end = std::min(hi, large.size());
    const NodeId* it = std::lower_bound(large.data() + lo, large.data() + end, x);
    lo = static_cast<size_t>(it - large.data());
    if (lo < large.size() && large[lo] == x) {
      out->push_back(x);
      ++lo;
    }
  }
}

void IntersectMerge(std::span<const NodeId> a, std::span<const NodeId> b,
                    std::vector<NodeId>* out) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

#ifndef NDEBUG
// True when `s` overlaps out's allocated storage (capacity, not just size:
// push_back writes anywhere in the allocation). Pointer order via std::less
// so comparing into distinct objects stays well-defined.
bool AliasesOut(std::span<const NodeId> s, const std::vector<NodeId>& out) {
  if (s.empty() || out.capacity() == 0) return false;
  const NodeId* const ob = out.data();
  const NodeId* const oe = ob + out.capacity();
  const std::less<const NodeId*> lt;
  return lt(s.data(), oe) && lt(ob, s.data() + s.size());
}
#endif

}  // namespace

void IntersectSorted(std::span<const NodeId> a, std::span<const NodeId> b,
                     std::vector<NodeId>* out) {
  assert(!AliasesOut(a, *out) && !AliasesOut(b, *out) &&
         "IntersectSorted: out must not alias an input");
  out->clear();
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return;
  if (a.size() * kGallopSkew <= b.size()) {
    IntersectGalloping(a, b, out);
    return;
  }
  IntersectMerge(a, b, out);
}

}  // namespace dkc
