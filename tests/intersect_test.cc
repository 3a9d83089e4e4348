// The intersection and kernel-row primitives against test-local scalar
// references: IntersectSorted (galloping and three-way merge) against a
// plain merge, exhaustively over small sizes (0..80 on both sides, where
// the gallop-skew switch and the empty/single-element edges live), and the
// branch-free GatherValidLocalIds against the branchy loop it replaced.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "clique/intersect.h"
#include "gtest/gtest.h"

namespace dkc {
namespace {

// The three-way merge, written out independently of the library's.
std::vector<NodeId> Reference(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

// Sorted unique draw of `n` values from [base, base + universe), seeded
// deterministically per (n, salt) so failures replay.
std::vector<NodeId> Draw(size_t n, uint64_t salt, NodeId base,
                         NodeId universe) {
  std::mt19937_64 rng(0x1D5EC7ULL * (n + 1) + salt);
  std::vector<NodeId> pool(universe);
  for (NodeId i = 0; i < universe; ++i) pool[i] = base + i;
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(std::min<size_t>(n, pool.size()));
  std::sort(pool.begin(), pool.end());
  return pool;
}

void ExpectMatchesReference(const std::vector<NodeId>& a,
                            const std::vector<NodeId>& b,
                            const std::string& what) {
  const std::vector<NodeId> want = Reference(a, b);
  std::vector<NodeId> got;
  IntersectSorted(a, b, &got);
  EXPECT_EQ(got, want) << what << " na=" << a.size() << " nb=" << b.size();
  IntersectSorted(b, a, &got);
  EXPECT_EQ(got, want) << what << " (swapped) na=" << a.size()
                       << " nb=" << b.size();
}

// Exhaustive small-size sweep: all (na, nb) in [0, 80]^2 from a tight
// universe (high collision rate). Pairs with a skew of kGallopSkew or more
// take the galloping scan, the rest the merge.
TEST(IntersectSortedTest, ExhaustiveSmallSizes) {
  for (size_t na = 0; na <= 80; ++na) {
    for (size_t nb = 0; nb <= 80; ++nb) {
      const std::vector<NodeId> a = Draw(na, 7 * nb + 1, 0, 128);
      const std::vector<NodeId> b = Draw(nb, 13 * na + 2, 0, 128);
      std::vector<NodeId> got;
      IntersectSorted(a, b, &got);
      ASSERT_EQ(got, Reference(a, b)) << "na=" << na << " nb=" << nb;
    }
  }
}

// Values at the top of the NodeId range: the comparisons are unsigned, so
// ids near 2^32 - 1 must behave exactly like small ones — on both sides of
// the gallop switch.
TEST(IntersectSortedTest, MaxNodeIdValues) {
  const NodeId top = std::numeric_limits<NodeId>::max();
  for (size_t n : {4u, 8u, 9u, 16u, 33u}) {
    std::vector<NodeId> a, b;
    for (size_t i = 0; i < n; ++i) {
      a.push_back(top - static_cast<NodeId>(2 * (n - i) - 2));
      b.push_back(top - static_cast<NodeId>(3 * (n - i) - 3));
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    ExpectMatchesReference(a, b, "max-nodeid");
  }
  const std::vector<NodeId> extremes = {0, 1, top - 1, top};
  ExpectMatchesReference(extremes, extremes, "extremes-identical");
  const std::vector<NodeId> other = {1, 2, top};
  ExpectMatchesReference(extremes, other, "extremes-partial");
  // A two-element list against the top 64 * kGallopSkew ids: galloping.
  const NodeId wide_n = static_cast<NodeId>(64 * kGallopSkew);
  std::vector<NodeId> wide;
  for (NodeId i = 0; i < wide_n; ++i) wide.push_back(top - (wide_n - 1) + i);
  ExpectMatchesReference({top - 5, top}, wide, "max-nodeid-gallop");
}

// Exactly the kGallopSkew boundary: small * kGallopSkew == large flips
// IntersectSorted from the merge to galloping. Both sides of the flip (and
// the boundary itself) must agree with the reference.
TEST(IntersectSortedTest, GallopSkewBoundary) {
  for (size_t small_n : {1u, 2u, 5u, 8u}) {
    for (long delta : {-1L, 0L, 1L}) {
      const size_t large_n = static_cast<size_t>(
          static_cast<long>(small_n * kGallopSkew) + delta);
      const std::vector<NodeId> small_set = Draw(small_n, 5, 0, 4096);
      const std::vector<NodeId> large_set =
          Draw(large_n, 11, 0, static_cast<NodeId>(4 * large_n + 8));
      ExpectMatchesReference(small_set, large_set, "gallop-boundary");
    }
  }
}

// ---------------------------------------------------------------- words ---

TEST(WordPrimitiveTest, AndPopcountMatchesReference) {
  std::mt19937_64 rng(0xC0DE);
  for (size_t words : {0u, 1u, 3u, 8u, 9u, 64u, 65u}) {
    std::vector<uint64_t> a(words), b(words), want_out(words);
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    Count want = 0;
    for (size_t w = 0; w < words; ++w) {
      want_out[w] = a[w] & b[w];
      want += static_cast<Count>(std::popcount(want_out[w]));
    }
    std::vector<uint64_t> out(words, ~uint64_t{0});
    EXPECT_EQ(AndPopcountWords(a.data(), b.data(), out.data(), words), want)
        << "words=" << words;
    EXPECT_EQ(out, want_out) << "words=" << words;
    EXPECT_EQ(PopcountWords(out.data(), words), want) << "words=" << words;
    // The documented aliasing allowance: out == a (the kernel's
    // cand &= row runs in place).
    std::vector<uint64_t> in_place = a;
    EXPECT_EQ(AndPopcountWords(in_place.data(), b.data(), in_place.data(),
                               words),
              want)
        << "in-place words=" << words;
    EXPECT_EQ(in_place, want_out) << "in-place words=" << words;
  }
}

// The branchy loop the gather replaced: the reference semantics.
std::vector<NodeId> GatherReference(const std::vector<NodeId>& nbrs,
                                    const std::vector<uint32_t>& stamps,
                                    uint32_t epoch,
                                    const std::vector<NodeId>& local_of) {
  std::vector<NodeId> out;
  for (NodeId v : nbrs) {
    if (stamps[v] == epoch) out.push_back(local_of[v]);
  }
  return out;
}

// Every size 0..40 with all, none and a random third of the stamps valid.
// The output is a heap buffer of exactly n entries — the documented
// capacity — so a sanitizer build flags any write past it.
TEST(WordPrimitiveTest, GatherValidMatchesBranchyLoop) {
  constexpr uint32_t kEpoch = 7;
  constexpr size_t kUniverse = 512;
  std::mt19937_64 rng(0xBEEF);
  std::vector<NodeId> local_of(kUniverse);
  for (auto& x : local_of) x = static_cast<NodeId>(rng() % 4096);
  std::vector<uint32_t> random_stamps(kUniverse);
  for (auto& s : random_stamps) {
    s = (rng() % 3 == 0) ? kEpoch : static_cast<uint32_t>(rng() % 6);
  }
  const std::vector<uint32_t> none(kUniverse, kEpoch + 1);
  const std::vector<uint32_t> every(kUniverse, kEpoch);
  const std::pair<const char*, const std::vector<uint32_t>*> cases[] = {
      {"all", &every}, {"none", &none}, {"random", &random_stamps}};
  for (size_t n = 0; n <= 40; ++n) {
    std::vector<NodeId> nbrs(n);
    for (auto& x : nbrs) x = static_cast<NodeId>(rng() % kUniverse);
    for (const auto& [name, stamps] : cases) {
      const std::vector<NodeId> want =
          GatherReference(nbrs, *stamps, kEpoch, local_of);
      const auto out = std::make_unique<NodeId[]>(n);
      const size_t got_n =
          GatherValidLocalIds(nbrs.data(), n, stamps->data(), kEpoch,
                              local_of.data(), out.get());
      EXPECT_EQ(std::vector<NodeId>(out.get(), out.get() + got_n), want)
          << name << " n=" << n;
    }
  }
}

// ------------------------------------------------------------- aliasing ---

// Regression for the aliasing contract: out sharing storage with an input
// reads clobbered memory once the merge writes out. Debug builds must
// refuse loudly rather than return garbage.
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(IntersectAliasingDeathTest, OutAliasingInputAsserts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  std::vector<NodeId> buf = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::span<const NodeId> view(buf.data(), 4);
  std::vector<NodeId> other = {2, 4, 6, 8};
  EXPECT_DEATH(IntersectSorted(view, other, &buf), "must not alias");
  EXPECT_DEATH(IntersectSorted(other, view, &buf), "must not alias");
}
#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace dkc
