// Unit tests for the graph-shrinking preprocessing pipeline: (k-1)-core
// peel behaviour on structured graphs (windmill, tripartite, star), the
// "everything pruned" / "nothing pruned" edges, remap invariants, the
// order-preserving orientation contract, and the dynamic engine seeding
// from the preprocessed solve's node scores.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/solver.h"
#include "dynamic/dynamic_solver.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/ordering.h"
#include "graph/preprocess.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dkc {
namespace {

// Windmill: `blades` triangles all sharing node 0.
Graph Windmill(NodeId blades) {
  GraphBuilder b;
  for (NodeId i = 0; i < blades; ++i) {
    const NodeId x = 1 + 2 * i;
    const NodeId y = 2 + 2 * i;
    b.AddEdge(0, x);
    b.AddEdge(0, y);
    b.AddEdge(x, y);
  }
  return b.Build();
}

// Complete tripartite K_{size,size,size}.
Graph Tripartite(NodeId size) {
  GraphBuilder b;
  for (NodeId u = 0; u < 3 * size; ++u) {
    for (NodeId v = u + 1; v < 3 * size; ++v) {
      if (u / size != v / size) b.AddEdge(u, v);
    }
  }
  return b.Build();
}

// `core` with its node u moved to id 2u and a pendant leaf at id 2u+1:
// the peel removes exactly the interleaved leaves, so the remap is
// non-trivial (u -> u/2) while the core survives whole.
Graph WithPendants(const Graph& core) {
  GraphBuilder b;
  for (NodeId u = 0; u < core.num_nodes(); ++u) {
    b.AddEdge(2 * u, 2 * u + 1);
    for (NodeId v : core.Neighbors(u)) {
      if (u < v) b.AddEdge(2 * u, 2 * v);
    }
  }
  return b.Build();
}

Graph Star(NodeId leaves) {
  GraphBuilder b;
  for (NodeId i = 1; i <= leaves; ++i) b.AddEdge(0, i);
  return b.Build();
}

// The graph the solver runs on: the input itself when nothing was peeled.
const Graph& PrunedGraph(const Graph& g, const PreprocessResult& result) {
  return result.unchanged() ? g : result.pruned;
}

// Shared sanity pack: stats add up, the maps invert each other, the remap
// is monotone (order-preserving), and the orientation is a permutation of
// the pruned graph's nodes. An unchanged result copies nothing.
void CheckInvariants(const Graph& g, const PreprocessResult& result) {
  const PreprocessStats& stats = result.stats;
  EXPECT_EQ(stats.nodes_before, g.num_nodes());
  EXPECT_EQ(stats.edges_before, g.num_edges());
  const Graph& pruned = PrunedGraph(g, result);
  EXPECT_EQ(stats.nodes_after, pruned.num_nodes());
  EXPECT_EQ(stats.edges_after, pruned.num_edges());

  if (result.unchanged()) {
    EXPECT_EQ(stats.edges_removed(), 0u);
    EXPECT_EQ(result.pruned.num_nodes(), 0u);
    EXPECT_TRUE(result.new_to_old.empty());
    EXPECT_TRUE(result.old_to_new.empty());
  } else {
    ASSERT_EQ(result.new_to_old.size(), result.pruned.num_nodes());
    ASSERT_EQ(result.old_to_new.size(), g.num_nodes());
  }
  for (NodeId pu = 0; pu < result.new_to_old.size(); ++pu) {
    EXPECT_EQ(result.old_to_new[result.new_to_old[pu]], pu);
    if (pu > 0) {  // ascending == order-preserving
      EXPECT_LT(result.new_to_old[pu - 1], result.new_to_old[pu]);
    }
  }

  const NodeId pruned_n = pruned.num_nodes();
  ASSERT_EQ(result.orientation.nodes.size(), pruned_n);
  ASSERT_EQ(result.orientation.rank.size(), pruned_n);
  std::vector<uint8_t> seen(pruned_n, 0);
  for (NodeId i = 0; i < pruned_n; ++i) {
    const NodeId u = result.orientation.nodes[i];
    ASSERT_LT(u, pruned_n);
    EXPECT_EQ(result.orientation.rank[u], i);
    EXPECT_EQ(seen[u], 0);
    seen[u] = 1;
  }
}

PreprocessResult RunPipeline(const Graph& g, int k) {
  PreprocessResult result = PreprocessForKCliques(g, k);
  CheckInvariants(g, result);
  return result;
}

TEST(PreprocessTest, WindmillKeepsEverythingForTriangles) {
  const Graph g = Windmill(5);
  const auto result = RunPipeline(g, 3);
  // Every node has degree >= 2 = k-1: nothing is peeled.
  EXPECT_TRUE(result.unchanged());
  EXPECT_EQ(result.stats.nodes_after, g.num_nodes());
  EXPECT_EQ(result.stats.edges_after, g.num_edges());
}

TEST(PreprocessTest, WindmillFullyPrunedForK4) {
  const Graph g = Windmill(5);
  const auto result = RunPipeline(g, 4);
  // No 4-clique anywhere: blade nodes have degree 2 < 3 and are peeled,
  // which strands the hub and empties the graph entirely.
  EXPECT_FALSE(result.unchanged());
  EXPECT_EQ(result.pruned.num_nodes(), 0u);
  EXPECT_EQ(result.pruned.num_edges(), 0u);
  EXPECT_EQ(result.stats.nodes_removed(), g.num_nodes());
  EXPECT_EQ(result.stats.edges_removed(), g.num_edges());
}

TEST(PreprocessTest, TripartiteIsCliqueFreeButUnprunable) {
  // K_{2,2,2} has no 4-clique, yet every node has degree 4 >= 3: the
  // degree condition cannot see it. The peel must keep it whole
  // (conservative, never unsound) — catching an over-aggressive rule.
  const Graph g = Tripartite(2);
  ASSERT_TRUE(testing::BruteForceKCliques(g, 4).empty());
  const auto result = RunPipeline(g, 4);
  EXPECT_TRUE(result.unchanged());
  EXPECT_EQ(result.stats.nodes_after, g.num_nodes());
  EXPECT_EQ(result.stats.edges_after, g.num_edges());
}

TEST(PreprocessTest, TripartiteKeepsTrianglesDropsNothingForK3) {
  const Graph g = Tripartite(3);
  const auto result = RunPipeline(g, 3);
  EXPECT_TRUE(result.unchanged());
  EXPECT_EQ(result.stats.nodes_after, g.num_nodes());
  EXPECT_EQ(result.stats.edges_after, g.num_edges());
}

TEST(PreprocessTest, StarIsFullyPeeled) {
  const Graph g = Star(16);
  const auto result = RunPipeline(g, 3);
  // Leaves have degree 1 < 2; peeling them strands the hub.
  EXPECT_EQ(result.pruned.num_nodes(), 0u);
  EXPECT_EQ(result.stats.nodes_removed(), g.num_nodes());
  EXPECT_EQ(result.stats.edges_removed(), g.num_edges());
}

TEST(PreprocessTest, PruningNeverRemovesACliqueNodeOrEdge) {
  // Randomized soundness check: every k-clique of the input must appear,
  // with all of its edges, in the pruned graph (under the id remap).
  for (int case_index = 0; case_index < 12; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraph(28 + case_index, 0.25,
                                         9000 + case_index);
    for (int k = 3; k <= 5; ++k) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const auto result = RunPipeline(g, k);
      const auto before = testing::BruteForceKCliques(g, k);
      auto after = testing::BruteForceKCliques(PrunedGraph(g, result), k);
      if (!result.unchanged()) {
        for (auto& clique : after) {
          for (NodeId& u : clique) u = result.new_to_old[u];
        }
      }
      EXPECT_EQ(testing::Canonicalize(before), testing::Canonicalize(after));
    }
  }
}

TEST(PreprocessTest, DefaultOrientationRestrictsTheOriginalDegeneracyOrder) {
  const Graph g = WithPendants(testing::RandomGraph(60, 0.15, 9100));
  const auto result = RunPipeline(g, 4);
  ASSERT_GT(result.pruned.num_nodes(), 0u);
  ASSERT_LT(result.pruned.num_nodes(), g.num_nodes());  // pruning bit
  const Ordering original = DegeneracyOrdering(g);
  // Relative ranks of survivors must match the original order exactly.
  std::vector<NodeId> expected;
  for (NodeId id : original.nodes) {
    if (result.old_to_new[id] != kInvalidNode) {
      expected.push_back(result.old_to_new[id]);
    }
  }
  EXPECT_EQ(result.orientation.nodes, expected);
}

TEST(PreprocessTest, EmptyGraphAndSmallKPassThrough) {
  const Graph empty;
  const auto result = RunPipeline(empty, 4);
  EXPECT_TRUE(result.unchanged());
  EXPECT_EQ(result.stats.nodes_after, 0u);

  // k < 3: identity pass-through (no prune rules exist).
  const Graph g = Star(4);
  const auto identity = RunPipeline(g, 2);
  EXPECT_TRUE(identity.unchanged());
  EXPECT_EQ(identity.stats.nodes_after, g.num_nodes());
  EXPECT_EQ(identity.stats.edges_after, g.num_edges());
}

// DynamicSolver::Build seeds the engine with the node scores its
// (preprocessed) seed solve counted instead of recounting them; the engine
// state must be byte-identical to one seeded by BuildFromSolution, which
// recounts on the full graph. The sparse-social shape (planted cliques in a
// tree periphery) peels most nodes, so remapped and zero scores are both
// covered; WS peels nothing.
TEST(PreprocessTest, BuildReusesSeedScoresByteIdentically) {
  constexpr int kK = 4;
  Rng ws_rng(0x5EED);
  const Graph ws = WattsStrogatz(1500, 12, 0.1, ws_rng).value();
  PlantedCliqueSpec spec;
  spec.num_cliques = 60;
  spec.k = kK;
  spec.filler_nodes = 3000;
  Rng planted_rng(0xAB);
  const Graph sparse = PlantedCliques(spec, planted_rng).value().graph;
  ThreadPool pool4(4);
  ThreadPool* pools[] = {nullptr, &pool4};
  const Method methods[] = {Method::kLP, Method::kGC, Method::kHG};
  for (const Graph* g : {&ws, &sparse}) {
    SCOPED_TRACE(g == &ws ? "ws" : "sparse-social");
    SolverOptions solve_options;
    solve_options.k = kK;
    const auto solved = Solve(*g, solve_options);
    ASSERT_TRUE(solved.ok());
    EXPECT_EQ(solved->preprocess.nodes_removed() > 0, g == &sparse);
    for (ThreadPool* pool : pools) {
      SCOPED_TRACE(pool == nullptr ? "serial" : "pool4");
      for (Method method : methods) {
        SCOPED_TRACE(MethodName(method));
        DynamicOptions options;
        options.k = kK;
        options.initial_method = method;
        options.pool = pool;
        auto built = DynamicSolver::Build(*g, options);
        ASSERT_TRUE(built.ok());
        auto seeded =
            DynamicSolver::BuildFromSolution(*g, built->Snapshot(), options);
        ASSERT_TRUE(seeded.ok());
        std::string built_bytes, seeded_bytes;
        built->state().SerializeGraphTo(&built_bytes);
        built->state().SerializeStateTo(&built_bytes);
        seeded->state().SerializeGraphTo(&seeded_bytes);
        seeded->state().SerializeStateTo(&seeded_bytes);
        EXPECT_EQ(built_bytes, seeded_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace dkc
