#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mis/exact_mis.h"
#include "mis/greedy_mis.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dkc {
namespace {

using Adj = std::vector<std::vector<uint32_t>>;

Adj RandomAdjacency(uint32_t n, double p, uint64_t seed) {
  Rng rng(seed);
  Adj adj(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (rng.NextBool(p)) {
        adj[u].push_back(v);
        adj[v].push_back(u);
      }
    }
  }
  for (auto& list : adj) std::sort(list.begin(), list.end());
  return adj;
}

bool IsIndependentSet(const Adj& adj, const std::vector<uint32_t>& set) {
  for (uint32_t u : set) {
    for (uint32_t v : set) {
      if (u != v &&
          std::binary_search(adj[u].begin(), adj[u].end(), v)) {
        return false;
      }
    }
  }
  return true;
}

bool IsMaximalIndependentSet(const Adj& adj,
                             const std::vector<uint32_t>& set) {
  if (!IsIndependentSet(adj, set)) return false;
  std::vector<bool> in(adj.size(), false);
  for (uint32_t u : set) in[u] = true;
  for (uint32_t v = 0; v < adj.size(); ++v) {
    if (in[v]) continue;
    bool blocked = false;
    for (uint32_t w : adj[v]) {
      if (in[w]) {
        blocked = true;
        break;
      }
    }
    if (!blocked) return false;  // v could be added
  }
  return true;
}

// Exponential reference for tiny instances.
size_t BruteForceMisSize(const Adj& adj) {
  const uint32_t n = static_cast<uint32_t>(adj.size());
  size_t best = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool ok = true;
    for (uint32_t u = 0; u < n && ok; ++u) {
      if (!(mask & (1u << u))) continue;
      for (uint32_t v : adj[u]) {
        if (v > u && (mask & (1u << v))) {
          ok = false;
          break;
        }
      }
    }
    if (ok) best = std::max(best, static_cast<size_t>(__builtin_popcount(mask)));
  }
  return best;
}

// ------------------------------------------------------------- greedy
TEST(GreedyMisTest, EmptyGraph) {
  EXPECT_TRUE(GreedyMinDegreeMis({}).empty());
}

TEST(GreedyMisTest, NoEdgesTakesAll) {
  Adj adj(5);
  EXPECT_EQ(GreedyMinDegreeMis(adj).size(), 5u);
}

TEST(GreedyMisTest, TriangleTakesOne) {
  Adj adj = {{1, 2}, {0, 2}, {0, 1}};
  EXPECT_EQ(GreedyMinDegreeMis(adj).size(), 1u);
}

TEST(GreedyMisTest, PathTakesEnds) {
  // Path 0-1-2: min degree greedy takes 0 and 2.
  Adj adj = {{1}, {0, 2}, {1}};
  auto mis = GreedyMinDegreeMis(adj);
  EXPECT_EQ(mis.size(), 2u);
  EXPECT_TRUE(IsIndependentSet(adj, mis));
}

TEST(GreedyMisTest, ExpiredDeadlineReturnsPartialAndFlags) {
  Adj adj = RandomAdjacency(200, 0.1, 9);
  bool expired = false;
  auto mis = GreedyMinDegreeMis(adj, Deadline::AfterMillis(0), &expired);
  EXPECT_TRUE(expired);
  EXPECT_TRUE(IsIndependentSet(adj, mis));  // partial but still independent
}

TEST(GreedyMisTest, UnlimitedDeadlineDoesNotFlag) {
  Adj adj = RandomAdjacency(30, 0.2, 10);
  bool expired = true;
  auto mis = GreedyMinDegreeMis(adj, Deadline::Unlimited(), &expired);
  EXPECT_FALSE(expired);
  EXPECT_TRUE(IsMaximalIndependentSet(adj, mis));
}

TEST(GreedyMisTest, StarTakesLeaves) {
  Adj adj(6);
  for (uint32_t v = 1; v < 6; ++v) {
    adj[0].push_back(v);
    adj[v].push_back(0);
  }
  EXPECT_EQ(GreedyMinDegreeMis(adj).size(), 5u);
}

class GreedyMisSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyMisSweep, AlwaysMaximalIndependent) {
  Rng rng(GetParam());
  const uint32_t n = 10 + static_cast<uint32_t>(rng.NextBounded(40));
  const double p = 0.05 + rng.NextDouble() * 0.4;
  Adj adj = RandomAdjacency(n, p, GetParam() * 31 + 7);
  auto mis = GreedyMinDegreeMis(adj);
  EXPECT_TRUE(IsMaximalIndependentSet(adj, mis));
}

INSTANTIATE_TEST_SUITE_P(Random, GreedyMisSweep,
                         ::testing::Range<uint64_t>(0, 10));

// -------------------------------------------------------------- exact
TEST(ExactMisTest, EmptyGraph) {
  auto result = ExactMis({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->vertices.empty());
}

TEST(ExactMisTest, SingleVertex) {
  auto result = ExactMis(Adj(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vertices.size(), 1u);
}

TEST(ExactMisTest, CompleteGraphIsOne) {
  Adj adj = RandomAdjacency(6, 1.0, 0);
  auto result = ExactMis(adj);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vertices.size(), 1u);
}

TEST(ExactMisTest, C5IsTwo) {
  Adj adj = {{1, 4}, {0, 2}, {1, 3}, {2, 4}, {0, 3}};
  auto result = ExactMis(adj);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vertices.size(), 2u);
  EXPECT_TRUE(IsIndependentSet(adj, result->vertices));
}

TEST(ExactMisTest, PetersenGraphIsFour) {
  // Petersen graph: MIS size 4.
  Adj adj(10);
  auto add = [&adj](uint32_t u, uint32_t v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  };
  for (uint32_t i = 0; i < 5; ++i) {
    add(i, (i + 1) % 5);        // outer cycle
    add(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    add(i, 5 + i);              // spokes
  }
  for (auto& l : adj) std::sort(l.begin(), l.end());
  auto result = ExactMis(adj);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vertices.size(), 4u);
}

// `copies` disjoint copies of RandomAdjacency(n, p, seed): one component
// per copy (when each copy is connected), so ExactMis splits it.
Adj DisjointCopies(uint32_t copies, uint32_t n, double p, uint64_t seed) {
  const Adj one = RandomAdjacency(n, p, seed);
  Adj adj(copies * n);
  for (uint32_t c = 0; c < copies; ++c) {
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t v : one[u]) adj[c * n + u].push_back(c * n + v);
    }
  }
  return adj;
}

TEST(ExactMisTest, ExpiredDeadlineIsOot) {
  Adj adj = RandomAdjacency(60, 0.3, 1);
  auto result = ExactMis(adj, Deadline::AfterMillis(0));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeBudgetExceeded());

  // Multi-component, pooled: components the expired deadline keeps from
  // running must not merge as empty optima.
  ThreadPool pool(4);
  ExactMisParams params;
  params.pool = &pool;
  params.deadline = Deadline::AfterMillis(0);
  auto pooled = ExactMis(DisjointCopies(40, 12, 0.4, 2), params);
  ASSERT_FALSE(pooled.ok());
  EXPECT_TRUE(pooled.status().IsTimeBudgetExceeded());
}

TEST(ExactMisTest, PooledComponentsMatchSerial) {
  const Adj adj = DisjointCopies(40, 12, 0.4, 2);
  auto serial = ExactMis(adj);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  ExactMisParams params;
  params.pool = &pool;
  auto pooled = ExactMis(adj, params);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->vertices, serial->vertices);
  EXPECT_TRUE(IsIndependentSet(adj, pooled->vertices));
}

class ExactMisSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactMisSweep, MatchesBruteForceAndIsIndependent) {
  Rng rng(GetParam() + 100);
  const uint32_t n = 8 + static_cast<uint32_t>(rng.NextBounded(9));  // <= 16
  const double p = 0.1 + rng.NextDouble() * 0.6;
  Adj adj = RandomAdjacency(n, p, GetParam() * 131 + 5);
  auto result = ExactMis(adj);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsIndependentSet(adj, result->vertices));
  EXPECT_EQ(result->vertices.size(), BruteForceMisSize(adj));
}

INSTANTIATE_TEST_SUITE_P(Random, ExactMisSweep,
                         ::testing::Range<uint64_t>(0, 15));

TEST(ExactMisTest, UpperBoundStopsAtIncumbent) {
  // With a caller-supplied tight bound the search may stop at the first
  // incumbent of that size; the result must still be that optimum.
  Adj adj = {{1, 4}, {0, 2}, {1, 3}, {2, 4}, {0, 3}};  // C5, MIS = 2
  auto bounded = ExactMis(adj, Deadline::Unlimited(), /*upper_bound=*/2);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->vertices.size(), 2u);
  EXPECT_TRUE(IsIndependentSet(adj, bounded->vertices));
}

TEST(ExactMisTest, LooseUpperBoundDoesNotChangeTheOptimum) {
  // A bound above the true MIS must leave the result exact: the search
  // cannot terminate early, so it behaves like the unbounded call.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Adj adj = RandomAdjacency(14, 0.35, seed * 17 + 3);
    auto unbounded = ExactMis(adj);
    auto bounded = ExactMis(adj, Deadline::Unlimited(),
                            static_cast<uint32_t>(adj.size()));
    ASSERT_TRUE(unbounded.ok() && bounded.ok());
    EXPECT_EQ(bounded->vertices.size(), unbounded->vertices.size());
    EXPECT_TRUE(IsIndependentSet(adj, bounded->vertices));
    EXPECT_EQ(bounded->vertices.size(), BruteForceMisSize(adj));
  }
}

TEST(ExactMisTest, TightUpperBoundPrunesProvingWork) {
  // The whole point of the bound: when greedy already finds an MIS of the
  // promised size, the exact search should not branch at all.
  Adj adj = RandomAdjacency(40, 0.9, 11);  // dense => tiny MIS, greedy-easy
  auto unbounded = ExactMis(adj);
  ASSERT_TRUE(unbounded.ok());
  auto bounded = ExactMis(adj, Deadline::Unlimited(),
                          static_cast<uint32_t>(unbounded->vertices.size()));
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->vertices.size(), unbounded->vertices.size());
  EXPECT_LE(bounded->branch_nodes, unbounded->branch_nodes);
}

TEST(ExactMisTest, DisconnectedComponentsSumExactly) {
  // Two C5s plus three isolated vertices: MIS = 2 + 2 + 3. The components
  // are solved independently and summed.
  Adj adj(13);
  auto add = [&adj](uint32_t u, uint32_t v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  };
  for (uint32_t i = 0; i < 5; ++i) {
    add(i, (i + 1) % 5);
    add(5 + i, 5 + (i + 1) % 5);
  }
  for (auto& l : adj) std::sort(l.begin(), l.end());
  auto result = ExactMis(adj);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vertices.size(), 7u);
  EXPECT_TRUE(IsIndependentSet(adj, result->vertices));
  EXPECT_EQ(result->vertices.size(), BruteForceMisSize(adj));
}

TEST(ExactMisTest, DecompositionShrinksTheSearchTree) {
  // Four disjoint copies of a 12-vertex random graph. Decomposed, the
  // search tree is at most the sum of the per-copy trees — far below one
  // coupled search, and in particular no more than 4x a single copy's.
  const Adj one = RandomAdjacency(12, 0.3, 77);
  Adj four(48);
  for (uint32_t copy = 0; copy < 4; ++copy) {
    for (uint32_t u = 0; u < 12; ++u) {
      for (uint32_t v : one[u]) four[copy * 12 + u].push_back(copy * 12 + v);
    }
  }
  auto single = ExactMis(one);
  auto whole = ExactMis(four);
  ASSERT_TRUE(single.ok() && whole.ok());
  EXPECT_EQ(whole->vertices.size(), 4 * single->vertices.size());
  EXPECT_TRUE(IsIndependentSet(four, whole->vertices));
  EXPECT_LE(whole->branch_nodes, 4 * single->branch_nodes);
}

TEST(ExactMisTest, ComponentBoundTightensAsComponentsResolve) {
  // A true global upper bound still early-stops per component: two C5s
  // with bound 4 (the exact total) must come back optimal.
  Adj adj(10);
  auto add = [&adj](uint32_t u, uint32_t v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  };
  for (uint32_t i = 0; i < 5; ++i) {
    add(i, (i + 1) % 5);
    add(5 + i, 5 + (i + 1) % 5);
  }
  for (auto& l : adj) std::sort(l.begin(), l.end());
  auto result = ExactMis(adj, Deadline::Unlimited(), /*upper_bound=*/4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vertices.size(), 4u);
  EXPECT_TRUE(IsIndependentSet(adj, result->vertices));
}

TEST(ExactMisTest, AtLeastAsGoodAsGreedy) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Adj adj = RandomAdjacency(40, 0.2, seed);
    auto exact = ExactMis(adj);
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(exact->vertices.size(), GreedyMinDegreeMis(adj).size());
  }
}

TEST(ExactMisTest, FreeVertexListAvoidsQuadraticScans) {
  // Regression for the free-vertex list (before it, pivot selection and
  // every reduction pass scanned all n vertices per branch node): a long
  // pendant path welded to a small hard core. The path reduces away at the
  // root, after which every branch node must touch only the ~core-sized
  // free list — under the old full scans free_scan_steps would be about
  // branch_nodes * n, orders of magnitude above the bound asserted here.
  constexpr uint32_t kPath = 8000;  // even, so MIS(path) = kPath / 2
  constexpr uint32_t kCore = 20;
  const Adj core = RandomAdjacency(kCore, 0.3, 123);
  Adj adj(kPath + kCore);
  auto add = [&adj](uint32_t u, uint32_t v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  };
  for (uint32_t i = 0; i + 1 < kPath; ++i) add(i, i + 1);
  add(kPath - 1, kPath);  // weld the path's far end onto core vertex 0
  for (uint32_t u = 0; u < kCore; ++u) {
    for (uint32_t v : core[u]) {
      if (v > u) add(kPath + u, kPath + v);
    }
  }
  for (auto& list : adj) std::sort(list.begin(), list.end());

  auto result = ExactMis(adj);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsIndependentSet(adj, result->vertices));
  // An even pendant path contributes exactly kPath/2 on top of the core
  // optimum (its optimum avoids the welded endpoint).
  EXPECT_EQ(result->vertices.size(), kPath / 2 + BruteForceMisSize(core));
  ASSERT_GE(result->branch_nodes, 1u);
  // Root-level reduction may legitimately walk the full free list a few
  // times while the path collapses; after that, scans must be core-sized.
  const uint64_t n = kPath + kCore;
  EXPECT_LT(result->free_scan_steps, 10 * n + result->branch_nodes * 500)
      << "branch_nodes=" << result->branch_nodes
      << " — per-branch scans look O(n) again";
}

TEST(ExactMisTest, BranchBudgetAbortsDeterministically) {
  // The branch budget (unlike a wall-clock deadline) must be a pure
  // function of the instance: identical runs agree on abort vs success,
  // and a budget one below the instance's true branch count aborts.
  Adj adj = RandomAdjacency(60, 0.25, 31);
  auto full = ExactMis(adj);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->branch_nodes, 2u);

  ExactMisParams exact_fit;
  exact_fit.max_branch_nodes = full->branch_nodes;
  auto fits = ExactMis(adj, exact_fit);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits->vertices, full->vertices);

  ExactMisParams starved;
  starved.max_branch_nodes = full->branch_nodes - 1;
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto aborted = ExactMis(adj, starved);
    EXPECT_FALSE(aborted.ok()) << "attempt " << attempt;
  }
}

}  // namespace
}  // namespace dkc
