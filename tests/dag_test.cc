#include "graph/dag.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/ordering.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace dkc {
namespace {

TEST(DagTest, OutNeighborsHaveSmallerRank) {
  Graph g = testing::RandomGraph(50, 0.2, /*seed=*/20);
  Dag dag(g, DegeneracyOrdering(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : dag.OutNeighbors(u)) {
      EXPECT_LT(dag.ordering().rank[v], dag.ordering().rank[u]);
      EXPECT_TRUE(dag.Precedes(v, u));
    }
  }
}

TEST(DagTest, EveryEdgeOrientedExactlyOnce) {
  Graph g = testing::RandomGraph(50, 0.25, /*seed=*/21);
  Dag dag(g, DegreeOrdering(g));
  Count directed = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) directed += dag.OutDegree(u);
  EXPECT_EQ(directed, g.num_edges());
}

TEST(DagTest, OutNeighborsSortedById) {
  Graph g = testing::RandomGraph(50, 0.2, /*seed=*/22);
  Dag dag(g, DegeneracyOrdering(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto out = dag.OutNeighbors(u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
}

TEST(DagTest, IdentityOrderingOrientsHighToLow) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  Graph g = b.Build();
  Dag dag(g, IdentityOrdering(3));
  EXPECT_EQ(dag.OutDegree(0), 0u);
  EXPECT_EQ(dag.OutDegree(1), 1u);
  EXPECT_EQ(dag.OutDegree(2), 2u);
}

TEST(DagTest, MaxOutDegreeIsMaxOfOutDegrees) {
  Graph g = testing::RandomGraph(40, 0.3, /*seed=*/23);
  Dag dag(g, DegeneracyOrdering(g));
  Count expected = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    expected = std::max(expected, dag.OutDegree(u));
  }
  EXPECT_EQ(dag.MaxOutDegree(), expected);
}

TEST(DagTest, DegeneracyOrientationBoundsOutDegree) {
  // DegeneracyOrdering is the reversed peel sequence, so the DAG's
  // out-degree (edges toward lower ranks = later-peeled nodes) is bounded
  // by the degeneracy — the kClist complexity guarantee.
  Graph g = testing::RandomGraph(60, 0.2, /*seed=*/24);
  Dag dag(g, DegeneracyOrdering(g));
  EXPECT_LE(dag.MaxOutDegree(), Degeneracy(g));
}

TEST(DagTest, PooledBuildMatchesSerial) {
  // Sizes below 2 * workers run the pooled build inline; the rest split
  // the count and fill passes into chunks across the workers.
  ThreadPool pool(4);
  for (const NodeId n : {0u, 1u, 3u, 7u, 8u, 9u, 50u, 700u}) {
    Graph g = testing::RandomGraph(n, n < 50 ? 0.5 : 0.05, /*seed=*/25 + n);
    for (const Ordering& ordering :
         {DegeneracyOrdering(g), IdentityOrdering(n)}) {
      const Dag serial(g, ordering);
      const Dag pooled(g, ordering, &pool);
      ASSERT_EQ(pooled.num_nodes(), serial.num_nodes()) << "n=" << n;
      EXPECT_EQ(pooled.MaxOutDegree(), serial.MaxOutDegree()) << "n=" << n;
      for (NodeId u = 0; u < n; ++u) {
        const auto a = serial.OutNeighbors(u);
        const auto b = pooled.OutNeighbors(u);
        ASSERT_EQ(pooled.OutDegree(u), serial.OutDegree(u));
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "n=" << n << " u=" << u;
        EXPECT_EQ(a.data() - serial.OutNeighbors(0).data(),
                  b.data() - pooled.OutNeighbors(0).data())
            << "offset of u=" << u;
      }
    }
  }
}

TEST(DagTest, EmptyGraph) {
  Graph g;
  Dag dag(g, IdentityOrdering(0));
  EXPECT_EQ(dag.num_nodes(), 0u);
  EXPECT_EQ(dag.MaxOutDegree(), 0u);
}

}  // namespace
}  // namespace dkc
