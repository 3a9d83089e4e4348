#include "clique/clique_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "clique/kclique.h"
#include "gen/named_graphs.h"
#include "graph/ordering.h"
#include "test_util.h"

namespace dkc {
namespace {

CliqueStore MaterializeCliques(const Graph& g, int k) {
  Dag dag(g, DegeneracyOrdering(g));
  KCliqueEnumerator enumerator(dag, k);
  CliqueStore store(k);
  enumerator.ForEach([&](std::span<const NodeId> nodes) {
    store.Add(nodes);
    return true;
  });
  return store;
}

TEST(CliqueStoreTest, AddAndGet) {
  CliqueStore store(3);
  EXPECT_TRUE(store.empty());
  std::vector<NodeId> c1 = {5, 2, 9};
  std::vector<NodeId> c2 = {1, 0, 3};
  EXPECT_EQ(store.Add(c1), 0u);
  EXPECT_EQ(store.Add(c2), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(std::vector<NodeId>(store.Get(0).begin(), store.Get(0).end()), c1);
  EXPECT_EQ(std::vector<NodeId>(store.Get(1).begin(), store.Get(1).end()), c2);
}

TEST(CliqueStoreTest, MemoryGrowsWithContent) {
  CliqueStore store(4);
  std::vector<NodeId> c = {0, 1, 2, 3};
  for (int i = 0; i < 100; ++i) store.Add(c);
  EXPECT_GE(store.MemoryBytes(), 100 * 4 * static_cast<int64_t>(sizeof(NodeId)));
}

TEST(CliqueGraphTest, PaperFig3Structure) {
  // Fig. 3: the clique graph of the Fig. 2 graph is a path-like chain
  // C1-C2-C3-C4-C5-C6-C7 with extra chords; degree of C1 is 2 (Example 3).
  Graph g = PaperFig2Graph();
  CliqueStore store = MaterializeCliques(g, 3);
  ASSERT_EQ(store.size(), 7u);
  auto cg = CliqueGraph::Build(store, g.num_nodes());
  ASSERT_TRUE(cg.ok());
  EXPECT_EQ(cg->num_cliques(), 7u);

  // Locate C1 = {v1,v3,v6} = {0,2,5} and check deg(C1) == 2.
  for (CliqueId c = 0; c < store.size(); ++c) {
    std::vector<NodeId> nodes(store.Get(c).begin(), store.Get(c).end());
    std::sort(nodes.begin(), nodes.end());
    if (nodes == std::vector<NodeId>{0, 2, 5}) {
      EXPECT_EQ(cg->Degree(c), 2u);
    }
  }
}

TEST(CliqueGraphTest, EdgesMatchPairwiseIntersectionDefinition) {
  Graph g = testing::RandomGraph(18, 0.5, /*seed=*/60);
  CliqueStore store = MaterializeCliques(g, 3);
  auto cg = CliqueGraph::Build(store, g.num_nodes());
  ASSERT_TRUE(cg.ok());
  for (CliqueId a = 0; a < store.size(); ++a) {
    for (CliqueId b = 0; b < store.size(); ++b) {
      if (a == b) continue;
      auto na = store.Get(a);
      auto nb = store.Get(b);
      bool shares = false;
      for (NodeId u : na) {
        for (NodeId v : nb) {
          if (u == v) shares = true;
        }
      }
      auto nbrs = cg->Neighbors(a);
      const bool adjacent =
          std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
      EXPECT_EQ(adjacent, shares) << "cliques " << a << "," << b;
    }
  }
}

TEST(CliqueGraphTest, AdjacencyIsSymmetricAndDeduplicated) {
  Graph g = testing::RandomGraph(16, 0.6, /*seed=*/61);
  CliqueStore store = MaterializeCliques(g, 4);  // shares >= 2 nodes often
  auto cg = CliqueGraph::Build(store, g.num_nodes());
  ASSERT_TRUE(cg.ok());
  Count total = 0;
  for (CliqueId c = 0; c < cg->num_cliques(); ++c) {
    auto nbrs = cg->Neighbors(c);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end());
    for (CliqueId d : nbrs) {
      auto back = cg->Neighbors(d);
      EXPECT_TRUE(std::find(back.begin(), back.end(), c) != back.end());
    }
    total += nbrs.size();
  }
  EXPECT_EQ(total, 2 * cg->num_edges());
}

TEST(CliqueGraphTest, PooledBuildMatchesSerial) {
  // Rows dedupe in parallel chunks; every row must come out as the serial
  // build's.
  Graph g = testing::RandomGraph(60, 0.4, /*seed=*/65);
  CliqueStore store = MaterializeCliques(g, 3);
  ASSERT_GT(store.size(), 256u);
  auto serial = CliqueGraph::Build(store, g.num_nodes());
  ThreadPool pool(4);
  auto pooled = CliqueGraph::Build(store, g.num_nodes(), nullptr,
                                   Deadline::Unlimited(), &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->num_edges(), serial->num_edges());
  for (CliqueId c = 0; c < store.size(); ++c) {
    const auto a = serial->Neighbors(c);
    const auto b = pooled->Neighbors(c);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "clique " << c;
  }
}

TEST(CliqueGraphTest, DisjointCliquesYieldNoEdges) {
  PlantedCliqueSpec spec;
  spec.num_cliques = 6;
  spec.k = 3;
  spec.filler_nodes = 0;
  spec.shuffle_ids = false;
  Rng rng(62);
  auto planted = PlantedCliques(spec, rng);
  ASSERT_TRUE(planted.ok());
  CliqueStore store = MaterializeCliques(planted->graph, 3);
  ASSERT_EQ(store.size(), 6u);
  auto cg = CliqueGraph::Build(store, planted->graph.num_nodes());
  ASSERT_TRUE(cg.ok());
  EXPECT_EQ(cg->num_edges(), 0u);
}

TEST(CliqueGraphTest, TinyMemoryBudgetYieldsOom) {
  Graph g = testing::RandomGraph(40, 0.5, /*seed=*/63);
  CliqueStore store = MaterializeCliques(g, 3);
  ASSERT_GT(store.size(), 10u);
  MemoryBudget budget(64);  // absurdly small
  auto cg = CliqueGraph::Build(store, g.num_nodes(), &budget);
  ASSERT_FALSE(cg.ok());
  EXPECT_TRUE(cg.status().IsMemoryBudgetExceeded());
}

TEST(CliqueGraphTest, ExpiredDeadlineYieldsOot) {
  Graph g = testing::RandomGraph(40, 0.5, /*seed=*/64);
  CliqueStore store = MaterializeCliques(g, 3);
  auto cg = CliqueGraph::Build(store, g.num_nodes(), nullptr,
                               Deadline::AfterMillis(0));
  ASSERT_FALSE(cg.ok());
  EXPECT_TRUE(cg.status().IsTimeBudgetExceeded());
}

TEST(CliqueGraphTest, EmptyStore) {
  CliqueStore store(3);
  auto cg = CliqueGraph::Build(store, 10);
  ASSERT_TRUE(cg.ok());
  EXPECT_EQ(cg->num_cliques(), 0u);
  EXPECT_EQ(cg->num_edges(), 0u);
}

}  // namespace
}  // namespace dkc
