#include "clique/intersect_simd.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "util/cpu.h"

#if DKC_X86_SIMD
#include <immintrin.h>
#endif

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

#ifndef NDEBUG
// True when `s` overlaps out's allocated storage (capacity, not just size:
// the implementations write through the whole allocation). Pointer order
// via std::less so comparing into distinct objects stays well-defined.
bool AliasesOut(std::span<const NodeId> s, const std::vector<NodeId>& out) {
  if (s.empty() || out.capacity() == 0) return false;
  const NodeId* const ob = out.data();
  const NodeId* const oe = ob + out.capacity();
  const std::less<const NodeId*> lt;
  return lt(s.data(), oe) && lt(ob, s.data() + s.size());
}
#endif

}  // namespace

namespace simd_internal {

void MergeScalar(const NodeId* a, size_t na, const NodeId* b, size_t nb,
                 std::vector<NodeId>* out) {
  out->clear();
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
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

Count AndPopcountScalar(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        size_t words) {
  Count n = 0;
  for (size_t w = 0; w < words; ++w) {
    out[w] = a[w] & b[w];
    n += static_cast<Count>(std::popcount(out[w]));
  }
  return n;
}

Count PopcountScalar(const uint64_t* words, size_t n) {
  Count c = 0;
  for (size_t w = 0; w < n; ++w) {
    c += static_cast<Count>(std::popcount(words[w]));
  }
  return c;
}

size_t GatherValidScalar(const NodeId* nbrs, size_t n, const uint32_t* stamps,
                         uint32_t epoch, const NodeId* local_of, NodeId* out) {
  size_t o = 0;
  for (size_t i = 0; i < n; ++i) {
    if (stamps[nbrs[i]] == epoch) out[o++] = local_of[nbrs[i]];
  }
  return o;
}

#if DKC_X86_SIMD

namespace {

// Left-pack tables: for a k-bit match mask, the shuffle that compacts the
// matching 32-bit lanes to the front (source-order preserved). SSE packs
// through pshufb (byte indices), AVX2 through vpermd (lane indices).
struct alignas(16) SseCompactTable {
  uint8_t b[16][16];
};

constexpr SseCompactTable BuildSseCompact() {
  SseCompactTable t{};
  for (int mask = 0; mask < 16; ++mask) {
    int o = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane & 1) != 0) {
        for (int byte = 0; byte < 4; ++byte) {
          t.b[mask][4 * o + byte] = static_cast<uint8_t>(4 * lane + byte);
        }
        ++o;
      }
    }
    for (; o < 4; ++o) {
      for (int byte = 0; byte < 4; ++byte) {
        t.b[mask][4 * o + byte] = 0x80;  // pshufb: high bit set -> zero lane
      }
    }
  }
  return t;
}

constexpr SseCompactTable kSseCompact = BuildSseCompact();

struct alignas(32) AvxCompactTable {
  uint32_t idx[256][8];
};

constexpr AvxCompactTable BuildAvxCompact() {
  AvxCompactTable t{};
  for (int mask = 0; mask < 256; ++mask) {
    int o = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane & 1) != 0) t.idx[mask][o++] = static_cast<uint32_t>(lane);
    }
    for (; o < 8; ++o) t.idx[mask][o] = 0;  // don't-care: cursor skips them
  }
  return t;
}

constexpr AvxCompactTable kAvxCompact = BuildAvxCompact();

// Cyclic lane rotations of the b-block for the all-pairs compare. Stored as
// permute-index rows so the 7 rotations are independent (7 * ~1 cycle of
// shuffle throughput, not a 7-deep dependency chain).
struct alignas(32) AvxRotTable {
  uint32_t idx[7][8];
};

constexpr AvxRotTable BuildAvxRot() {
  AvxRotTable t{};
  for (int r = 1; r <= 7; ++r) {
    for (int lane = 0; lane < 8; ++lane) {
      t.idx[r - 1][lane] = static_cast<uint32_t>((lane + r) & 7);
    }
  }
  return t;
}

constexpr AvxRotTable kAvxRot = BuildAvxRot();

}  // namespace

// Shuffle intersection, 4-wide: compare a 4-lane a-block against the four
// in-lane rotations of a 4-lane b-block (all 16 pairs), movemask the hits,
// left-pack the matching a-lanes through the pshufb table, and advance the
// block(s) whose max is the smaller. Unique inputs mean an a-lane can match
// at most once across every b-block it meets, so each hit is emitted
// exactly once and in ascending order. Scalar tail finishes the remainders.
__attribute__((target("sse4.2"))) void MergeSse(const NodeId* a, size_t na,
                                                const NodeId* b, size_t nb,
                                                std::vector<NodeId>* out) {
  // Slack: o never exceeds |a ∩ b| <= min(na, nb) before a 4-lane store.
  out->resize(std::min(na, nb) + 4);
  NodeId* w = out->data();
  size_t o = 0, i = 0, j = 0;
  const size_t na4 = na & ~size_t{3};
  const size_t nb4 = nb & ~size_t{3};
  if (i < na4 && j < nb4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    for (;;) {
      const __m128i r1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
      const __m128i r2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
      const __m128i r3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
      __m128i m = _mm_cmpeq_epi32(va, vb);
      m = _mm_or_si128(m, _mm_cmpeq_epi32(va, r1));
      m = _mm_or_si128(m, _mm_or_si128(_mm_cmpeq_epi32(va, r2),
                                       _mm_cmpeq_epi32(va, r3)));
      const unsigned mask =
          static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(m)));
      const __m128i sh =
          _mm_load_si128(reinterpret_cast<const __m128i*>(kSseCompact.b[mask]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(w + o),
                       _mm_shuffle_epi8(va, sh));
      o += static_cast<size_t>(std::popcount(mask));
      const NodeId amax = a[i + 3];
      const NodeId bmax = b[j + 3];
      if (amax <= bmax) {
        i += 4;
        if (i >= na4) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (bmax <= amax) {
        j += 4;
        if (j >= nb4) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  while (i < na && j < nb) {
    const NodeId x = a[i];
    const NodeId y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      w[o++] = x;
      ++i;
      ++j;
    }
  }
  out->resize(o);
}

// Same scheme, 8-wide: the seven cross-lane rotations come from vpermd with
// precomputed index rows, the left-pack from vpermd with the 256-entry
// table. All 64 pairs of the (8, 8) block pair are compared per iteration.
__attribute__((target("avx2"))) void MergeAvx2(const NodeId* a, size_t na,
                                               const NodeId* b, size_t nb,
                                               std::vector<NodeId>* out) {
  out->resize(std::min(na, nb) + 8);
  NodeId* w = out->data();
  size_t o = 0, i = 0, j = 0;
  const size_t na8 = na & ~size_t{7};
  const size_t nb8 = nb & ~size_t{7};
  if (i < na8 && j < nb8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i rot0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kAvxRot.idx[0]));
    const __m256i rot1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kAvxRot.idx[1]));
    const __m256i rot2 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kAvxRot.idx[2]));
    const __m256i rot3 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kAvxRot.idx[3]));
    const __m256i rot4 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kAvxRot.idx[4]));
    const __m256i rot5 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kAvxRot.idx[5]));
    const __m256i rot6 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kAvxRot.idx[6]));
    for (;;) {
      __m256i m = _mm256_cmpeq_epi32(va, vb);
      m = _mm256_or_si256(
          m, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot0)));
      m = _mm256_or_si256(
          m, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot1)));
      m = _mm256_or_si256(
          m, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot2)));
      m = _mm256_or_si256(
          m, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot3)));
      m = _mm256_or_si256(
          m, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot4)));
      m = _mm256_or_si256(
          m, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot5)));
      m = _mm256_or_si256(
          m, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot6)));
      const unsigned mask =
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kAvxCompact.idx[mask]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(w + o),
                          _mm256_permutevar8x32_epi32(va, perm));
      o += static_cast<size_t>(std::popcount(mask));
      const NodeId amax = a[i + 7];
      const NodeId bmax = b[j + 7];
      if (amax <= bmax) {
        i += 8;
        if (i >= na8) break;
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (bmax <= amax) {
        j += 8;
        if (j >= nb8) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  while (i < na && j < nb) {
    const NodeId x = a[i];
    const NodeId y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      w[o++] = x;
      ++i;
      ++j;
    }
  }
  out->resize(o);
}

// Fused AND + positional popcount (Mula's pshufb nibble LUT + vpsadbw
// horizontal fold), 4 words per step. `out` may alias an input: each block
// is fully loaded before it is stored.
__attribute__((target("avx2"))) Count AndPopcountAvx2(const uint64_t* a,
                                                      const uint64_t* b,
                                                      uint64_t* out,
                                                      size_t words) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), v);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  Count c = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < words; ++w) {
    out[w] = a[w] & b[w];
    c += static_cast<Count>(std::popcount(out[w]));
  }
  return c;
}

__attribute__((target("avx2"))) Count PopcountAvx2(const uint64_t* words,
                                                   size_t n) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  Count c = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < n; ++w) c += static_cast<Count>(std::popcount(words[w]));
  return c;
}

// Bulk epoch filter + remap: gather 8 stamps, compare against the epoch,
// gather the 8 local ids, and left-pack the valid ones through the vpermd
// table — one masked 8-lane step instead of 8 data-dependent branches.
// o <= i <= n - 8 inside the loop, so the full-width store stays in bounds
// of an n-entry output buffer.
__attribute__((target("avx2"))) size_t GatherValidAvx2(
    const NodeId* nbrs, size_t n, const uint32_t* stamps, uint32_t epoch,
    const NodeId* local_of, NodeId* out) {
  const __m256i ve = _mm256_set1_epi32(static_cast<int>(epoch));
  size_t o = 0, i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nbrs + i));
    const __m256i st = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(stamps), idx, 4);
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(st, ve))));
    if (mask == 0) continue;
    const __m256i loc = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(local_of), idx, 4);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kAvxCompact.idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + o),
                        _mm256_permutevar8x32_epi32(loc, perm));
    o += static_cast<size_t>(std::popcount(mask));
  }
  for (; i < n; ++i) {
    if (stamps[nbrs[i]] == epoch) out[o++] = local_of[nbrs[i]];
  }
  return o;
}

#endif  // DKC_X86_SIMD

// Constinit scalar table: any call that races static initialization (there
// are none in-tree, but other TUs' initializers could intersect) gets the
// reference implementation. The registrar below upgrades it to the probed
// level before main() and re-resolves on override changes.
constinit SimdOps g_ops = {&MergeScalar, &AndPopcountScalar, &PopcountScalar,
                           &GatherValidScalar};

namespace {

void Reresolve() {
  SimdOps ops = {&MergeScalar, &AndPopcountScalar, &PopcountScalar,
                 &GatherValidScalar};
#if DKC_X86_SIMD
  const SimdLevel level = ActiveSimdLevel();
  if (level >= SimdLevel::kSse42) ops.merge = &MergeSse;
  if (level >= SimdLevel::kAvx2) {
    ops.merge = &MergeAvx2;
    ops.and_popcount = &AndPopcountAvx2;
    ops.popcount = &PopcountAvx2;
    ops.gather_valid = &GatherValidAvx2;
  }
#endif
  g_ops = ops;
}

struct DispatchRegistrar {
  DispatchRegistrar() {
    Reresolve();
    internal::RegisterSimdReresolveHook(&Reresolve);
  }
};

DispatchRegistrar g_registrar;

}  // namespace
}  // namespace simd_internal

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
#if defined(DKC_PORTABLE)
  // Portable builds keep the historical scalar merge bit-for-bit, with no
  // dispatch indirection compiled in at all.
  simd_internal::MergeScalar(a.data(), a.size(), b.data(), b.size(), out);
#else
  simd_internal::g_ops.merge(a.data(), a.size(), b.data(), b.size(), out);
#endif
}

}  // namespace dkc
