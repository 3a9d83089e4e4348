#include "clique/kclique.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "gen/named_graphs.h"
#include "graph/ordering.h"
#include "test_util.h"

namespace dkc {
namespace {

TEST(IntersectSortedTest, Basic) {
  std::vector<NodeId> a = {1, 3, 5, 7};
  std::vector<NodeId> b = {2, 3, 4, 7, 9};
  std::vector<NodeId> out;
  IntersectSorted(a, b, &out);
  EXPECT_EQ(out, (std::vector<NodeId>{3, 7}));
}

TEST(IntersectSortedTest, Disjoint) {
  std::vector<NodeId> a = {1, 2};
  std::vector<NodeId> b = {3, 4};
  std::vector<NodeId> out = {99};
  IntersectSorted(a, b, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectSortedTest, OneEmpty) {
  std::vector<NodeId> a = {};
  std::vector<NodeId> b = {1, 2};
  std::vector<NodeId> out;
  IntersectSorted(a, b, &out);
  EXPECT_TRUE(out.empty());
}

TEST(KCliqueTest, TriangleCountOnPaperExample) {
  Graph g = PaperFig2Graph();
  Dag dag(g, DegeneracyOrdering(g));
  EXPECT_EQ(CountKCliques(dag, 3), 7u);  // Example 1
}

TEST(KCliqueTest, ForEachEnumeratesEachCliqueOnce) {
  Graph g = PaperFig2Graph();
  Dag dag(g, DegeneracyOrdering(g));
  KCliqueEnumerator enumerator(dag, 3);
  std::vector<std::vector<NodeId>> found;
  enumerator.ForEach([&](std::span<const NodeId> nodes) {
    found.emplace_back(nodes.begin(), nodes.end());
    return true;
  });
  EXPECT_EQ(found.size(), 7u);
  EXPECT_EQ(testing::Canonicalize(found),
            testing::Canonicalize(testing::BruteForceKCliques(g, 3)));
}

TEST(KCliqueTest, EarlyStopHonored) {
  Graph g = PaperFig2Graph();
  Dag dag(g, DegeneracyOrdering(g));
  KCliqueEnumerator enumerator(dag, 3);
  int seen = 0;
  const bool completed = enumerator.ForEach([&](std::span<const NodeId>) {
    return ++seen < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 3);
}

TEST(KCliqueTest, RootIsHighestRanked) {
  Graph g = testing::RandomGraph(30, 0.35, /*seed=*/50);
  Dag dag(g, DegeneracyOrdering(g));
  KCliqueEnumerator enumerator(dag, 4);
  enumerator.ForEach([&](std::span<const NodeId> nodes) {
    for (size_t i = 1; i < nodes.size(); ++i) {
      EXPECT_GT(dag.ordering().rank[nodes[0]], dag.ordering().rank[nodes[i]]);
    }
    return true;
  });
}

TEST(KCliqueTest, NodeScoresOnPaperExample) {
  // Example 3: s_n(v6) = s_n(v5) = s_n(v8) = 3.
  Graph g = PaperFig2Graph();
  Dag dag(g, DegeneracyOrdering(g));
  NodeScores scores = ComputeNodeScores(dag, 3);
  EXPECT_EQ(scores.total_cliques, 7u);
  EXPECT_EQ(scores.per_node[5 - 1], 3u);
  EXPECT_EQ(scores.per_node[6 - 1], 3u);
  EXPECT_EQ(scores.per_node[8 - 1], 3u);
  EXPECT_EQ(scores.per_node[1 - 1], 1u);
  EXPECT_EQ(scores.per_node[2 - 1], 1u);
}

TEST(KCliqueTest, KarateTriangles) {
  Graph g = KarateClub();
  Dag dag(g, DegeneracyOrdering(g));
  EXPECT_EQ(CountKCliques(dag, 3), 45u);
  EXPECT_EQ(CountKCliques(dag, 4), 11u);
  EXPECT_EQ(CountKCliques(dag, 5), 2u);
}

TEST(KCliqueTest, CompleteGraphBinomialCounts) {
  GraphBuilder b;
  const NodeId n = 10;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  Graph g = b.Build();
  Dag dag(g, DegeneracyOrdering(g));
  EXPECT_EQ(CountKCliques(dag, 3), 120u);  // C(10,3)
  EXPECT_EQ(CountKCliques(dag, 4), 210u);  // C(10,4)
  EXPECT_EQ(CountKCliques(dag, 5), 252u);  // C(10,5)
  EXPECT_EQ(CountKCliques(dag, 10), 1u);
  EXPECT_EQ(CountKCliques(dag, 11), 0u);
}

TEST(KCliqueTest, TriangleFreeGraphHasNoTriangles) {
  GraphBuilder b;  // bipartite: triangle-free
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 5; v < 10; ++v) b.AddEdge(u, v);
  }
  Graph g = b.Build();
  Dag dag(g, DegeneracyOrdering(g));
  EXPECT_EQ(CountKCliques(dag, 3), 0u);
}

TEST(KCliqueTest, DeadlineReportsOot) {
  Graph g = testing::RandomGraph(200, 0.3, /*seed=*/51);
  Dag dag(g, DegeneracyOrdering(g));
  ThreadPool pool(4);
  ThreadPool* pools[] = {nullptr, &pool};
  for (ThreadPool* p : pools) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool4");
    bool oot = false;
    CountKCliques(dag, 5, p, Deadline::AfterMillis(0), &oot);
    EXPECT_TRUE(oot);
    oot = false;
    ComputeNodeScores(dag, 5, p, Deadline::AfterMillis(0), &oot);
    EXPECT_TRUE(oot);
    CliqueStore store(5);
    const Status listed = ListKCliques(dag, 5, p, Deadline::AfterMillis(0),
                                       nullptr, "test", &store);
    EXPECT_TRUE(listed.IsTimeBudgetExceeded()) << listed.ToString();
  }
}

TEST(KCliqueTest, ParallelCountMatchesSerial) {
  Graph g = testing::RandomGraph(2000, 0.01, /*seed=*/52);
  Dag dag(g, DegeneracyOrdering(g));
  ThreadPool pool(4);
  EXPECT_EQ(CountKCliques(dag, 3, &pool), CountKCliques(dag, 3));
}

TEST(KCliqueTest, ParallelScoresMatchSerial) {
  Graph g = testing::RandomGraph(2000, 0.01, /*seed=*/53);
  Dag dag(g, DegeneracyOrdering(g));
  ThreadPool pool(4);
  NodeScores serial = ComputeNodeScores(dag, 3);
  NodeScores parallel = ComputeNodeScores(dag, 3, &pool);
  EXPECT_EQ(serial.total_cliques, parallel.total_cliques);
  EXPECT_EQ(serial.per_node, parallel.per_node);
}

TEST(KCliqueTest, ListMatchesForEachOrderAtAnyThreadCount) {
  // Enough roots for many chunks per worker, so finished chunks park
  // behind slower ones and drain later; the store must still hold the
  // cliques in exactly ForEach's ascending-root DFS order.
  Graph g = testing::RandomGraph(3000, 0.01, /*seed=*/54);
  Dag dag(g, DegeneracyOrdering(g));
  std::vector<NodeId> expected;
  KCliqueEnumerator enumerator(dag, 3);
  enumerator.ForEach([&](std::span<const NodeId> nodes) {
    expected.insert(expected.end(), nodes.begin(), nodes.end());
    return true;
  });
  ASSERT_FALSE(expected.empty());
  const NodeScores scores = ComputeNodeScores(dag, 3);
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool4};
  for (ThreadPool* p : pools) {
    SCOPED_TRACE(p == nullptr ? 0 : p->num_threads());
    CliqueStore store(3);
    std::vector<Count> node_scores(g.num_nodes(), 0);
    ASSERT_TRUE(ListKCliques(dag, 3, p, Deadline::Unlimited(), nullptr,
                             "test", &store, &node_scores)
                    .ok());
    std::vector<NodeId> listed;
    for (CliqueId c = 0; c < store.size(); ++c) {
      const auto nodes = store.Get(c);
      listed.insert(listed.end(), nodes.begin(), nodes.end());
    }
    EXPECT_EQ(listed, expected);
    EXPECT_EQ(node_scores, scores.per_node);
  }
}

TEST(KCliqueTest, ListReportsMemoryBudgetExceeded) {
  Graph g = testing::RandomGraph(200, 0.3, /*seed=*/55);
  Dag dag(g, DegeneracyOrdering(g));
  ThreadPool pool(4);
  ThreadPool* pools[] = {nullptr, &pool};
  for (ThreadPool* p : pools) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool4");
    MemoryBudget memory(1024);
    CliqueStore store(4);
    const Status listed = ListKCliques(dag, 4, p, Deadline::Unlimited(),
                                       &memory, "test", &store);
    EXPECT_TRUE(listed.IsMemoryBudgetExceeded()) << listed.ToString();
  }
}

// Property sweep: counts, scores, and enumeration against brute force over
// (n, p, k) combinations.
class KCliqueSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(KCliqueSweep, MatchesBruteForce) {
  const auto [n, p, k] = GetParam();
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph g = testing::RandomGraph(static_cast<NodeId>(n), p,
                                   seed * 7919 + n + k);
    Dag dag(g, DegeneracyOrdering(g));
    const auto brute = testing::BruteForceKCliques(g, k);

    EXPECT_EQ(CountKCliques(dag, k), brute.size());

    NodeScores scores = ComputeNodeScores(dag, k);
    EXPECT_EQ(scores.total_cliques, brute.size());
    EXPECT_EQ(scores.per_node, testing::BruteForceNodeScores(g, k));

    KCliqueEnumerator enumerator(dag, k);
    std::vector<std::vector<NodeId>> listed;
    enumerator.ForEach([&](std::span<const NodeId> nodes) {
      listed.emplace_back(nodes.begin(), nodes.end());
      return true;
    });
    EXPECT_EQ(testing::Canonicalize(listed), testing::Canonicalize(brute));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KCliqueSweep,
    ::testing::Combine(::testing::Values(12, 18, 24),
                       ::testing::Values(0.2, 0.4, 0.6),
                       ::testing::Values(3, 4, 5)));

// ------------------------------------------------- subset enumeration
TEST(SubsetCliqueTest, FindsCliquesInInducedSubgraph) {
  Graph base = PaperFig2Graph();
  DynamicGraph g(base);
  // Subset {v5, v6, v7, v8} (0-based: 4,5,6,7) induces triangles
  // (v5,v6,v8) and (v5,v7,v8).
  std::vector<NodeId> subset = {4, 5, 6, 7};
  std::vector<std::vector<NodeId>> found;
  ForEachKCliqueInSubset(g, subset, 3, [&](std::span<const NodeId> nodes) {
    found.emplace_back(nodes.begin(), nodes.end());
    return true;
  });
  auto canonical = testing::Canonicalize(found);
  EXPECT_EQ(canonical.size(), 2u);
  EXPECT_TRUE(canonical.count({4, 5, 7}));
  EXPECT_TRUE(canonical.count({4, 6, 7}));
}

TEST(SubsetCliqueTest, SubsetSmallerThanKYieldsNothing) {
  DynamicGraph g(PaperFig2Graph());
  std::vector<NodeId> subset = {0, 2};
  int count = 0;
  ForEachKCliqueInSubset(g, subset, 3, [&](std::span<const NodeId>) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST(SubsetCliqueTest, WholeGraphSubsetMatchesGlobalEnumeration) {
  Graph base = testing::RandomGraph(20, 0.4, /*seed=*/54);
  DynamicGraph g(base);
  std::vector<NodeId> all(base.num_nodes());
  for (NodeId u = 0; u < base.num_nodes(); ++u) all[u] = u;
  std::vector<std::vector<NodeId>> found;
  ForEachKCliqueInSubset(g, all, 4, [&](std::span<const NodeId> nodes) {
    found.emplace_back(nodes.begin(), nodes.end());
    return true;
  });
  EXPECT_EQ(testing::Canonicalize(found),
            testing::Canonicalize(testing::BruteForceKCliques(base, 4)));
}

TEST(SubsetCliqueTest, BudgetTruncatesAtExactBranchBoundaries) {
  // K6: rich enough that the 3-clique DFS has many branch nodes. The
  // budgeted enumeration must emit exactly the cliques whose charge point
  // (the units used when an unbudgeted run emits it) fits the cap, charge
  // min(total, cap) units, and latch `cut` iff the cap actually truncated
  // — for EVERY cap value.
  GraphBuilder b;
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  Graph base = b.Build();
  DynamicGraph g(base);
  std::vector<NodeId> all = {0, 1, 2, 3, 4, 5};

  std::vector<std::vector<NodeId>> reference;
  std::vector<uint64_t> charge_points;
  EnumBudget recorder;
  ForEachKCliqueInSubset(
      g, all, 3,
      [&](std::span<const NodeId> nodes) {
        reference.emplace_back(nodes.begin(), nodes.end());
        charge_points.push_back(recorder.used);
        return true;
      },
      nullptr, &recorder);
  ASSERT_EQ(reference.size(), 20u);  // C(6,3)
  ASSERT_EQ(charge_points.size(), reference.size());
  ASSERT_FALSE(recorder.cut);
  const uint64_t total = recorder.used;
  ASSERT_GT(total, 0u);

  for (uint64_t cap = 1; cap <= total + 2; ++cap) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    std::vector<std::vector<NodeId>> found;
    EnumBudget budget;
    budget.cap = cap;
    ForEachKCliqueInSubset(
        g, all, 3,
        [&](std::span<const NodeId> nodes) {
          found.emplace_back(nodes.begin(), nodes.end());
          return true;
        },
        nullptr, &budget);
    std::vector<std::vector<NodeId>> expected;
    for (size_t i = 0; i < reference.size(); ++i) {
      if (charge_points[i] <= cap) expected.push_back(reference[i]);
    }
    EXPECT_EQ(found, expected);  // a prefix of the unbudgeted order
    EXPECT_EQ(budget.used, std::min(total, cap));
    EXPECT_EQ(budget.cut, total > cap);
  }
}

TEST(SubsetCliqueTest, EarlyStop) {
  Graph base = testing::RandomGraph(20, 0.5, /*seed=*/55);
  DynamicGraph g(base);
  std::vector<NodeId> all(base.num_nodes());
  for (NodeId u = 0; u < base.num_nodes(); ++u) all[u] = u;
  int count = 0;
  ForEachKCliqueInSubset(g, all, 3, [&](std::span<const NodeId>) {
    ++count;
    return false;
  });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace dkc
