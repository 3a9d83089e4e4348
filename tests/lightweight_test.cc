#include "core/lightweight.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/basic_framework.h"
#include "core/gc_solver.h"
#include "core/opt_solver.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/named_graphs.h"
#include "graph/ordering.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace dkc {
namespace {

LightweightOptions Opts(int k, bool prune) {
  LightweightOptions o;
  o.k = k;
  o.enable_score_pruning = prune;
  return o;
}

// The solution's cliques back to back, in commit order and member order.
std::vector<NodeId> Flatten(const CliqueStore& set) {
  std::vector<NodeId> flat;
  for (CliqueId c = 0; c < set.size(); ++c) {
    auto nodes = set.Get(c);
    flat.insert(flat.end(), nodes.begin(), nodes.end());
  }
  return flat;
}

// Algorithm 3's selection rule run eagerly, with no heap and no caching:
// every step recomputes each valid root's minimum-score clique from
// scratch and commits the global minimum by (clique score, root rank).
// A root's candidates are the k-cliques with the root ranked highest; its
// search walks them depth-first, each level over the valid out-neighbours
// (lower rank) of the level above in ascending node id, and keeps the
// first clique of the lowest score, the order the lazy solver's FindMin
// breaks ties in. Cliques are emitted root first, then in DFS order.
class EagerReference {
 public:
  EagerReference(const Graph& g, int k)
      : n_(g.num_nodes()),
        k_(k),
        scores_(testing::BruteForceNodeScores(g, k)),
        rank_(OrderByKeyAscending(scores_).rank),
        adj_(static_cast<size_t>(n_) * n_, 0),
        valid_(n_, 1) {
    for (NodeId u = 0; u < n_; ++u) {
      for (NodeId v : g.Neighbors(u)) adj_[u * n_ + v] = 1;
    }
  }

  std::vector<NodeId> Solve() {
    std::vector<NodeId> committed;
    while (true) {
      std::optional<std::pair<std::pair<Count, NodeId>, std::vector<NodeId>>>
          best;
      for (NodeId u = 0; u < n_; ++u) {
        if (!valid_[u]) continue;
        best_score_.reset();
        path_.assign(1, u);
        Search(u, scores_[u]);
        if (!best_score_) continue;
        const std::pair<Count, NodeId> key{*best_score_, rank_[u]};
        if (!best || key < best->first) best.emplace(key, best_clique_);
      }
      if (!best) return committed;
      for (NodeId v : best->second) valid_[v] = 0;
      committed.insert(committed.end(), best->second.begin(),
                       best->second.end());
    }
  }

 private:
  // Extends path_ (last node `top`, running score `sum`) by valid
  // out-neighbours of `top` that are adjacent to every node on the path.
  void Search(NodeId top, Count sum) {
    if (path_.size() == static_cast<size_t>(k_)) {
      if (!best_score_ || sum < *best_score_) {
        best_score_ = sum;
        best_clique_ = path_;
      }
      return;
    }
    for (NodeId v = 0; v < n_; ++v) {
      if (!valid_[v] || rank_[v] >= rank_[top]) continue;
      bool joins = true;
      for (NodeId w : path_) joins = joins && adj_[w * n_ + v];
      if (!joins) continue;
      path_.push_back(v);
      Search(v, sum + scores_[v]);
      path_.pop_back();
    }
  }

  NodeId n_;
  int k_;
  std::vector<Count> scores_;
  std::vector<NodeId> rank_;
  std::vector<uint8_t> adj_;
  std::vector<uint8_t> valid_;
  std::vector<NodeId> path_;
  std::optional<Count> best_score_;
  std::vector<NodeId> best_clique_;
};

TEST(LightweightTest, RejectsKBelow3) {
  EXPECT_FALSE(SolveLightweight(PaperFig2Graph(), Opts(2, true)).ok());
}

TEST(LightweightTest, EmptyGraph) {
  auto result = SolveLightweight(Graph(), Opts(3, true));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(LightweightTest, PaperFig2FindsMaximumPacking) {
  auto result = SolveLightweight(PaperFig2Graph(), Opts(3, true));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_EQ(result->stats.cliques_listed, 7u);
  EXPECT_TRUE(VerifySolution(PaperFig2Graph(), result->set).ok());
}

TEST(LightweightTest, PruningDoesNotChangeTheResult) {
  // L and LP share everything except the FindMin branch cut; the paper
  // reports identical S ("Due to the same quality of S of L and LP").
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = testing::RandomGraph(40, 0.3, seed + 900);
    for (int k = 3; k <= 5; ++k) {
      auto with = SolveLightweight(g, Opts(k, true));
      auto without = SolveLightweight(g, Opts(k, false));
      ASSERT_TRUE(with.ok() && without.ok());
      ASSERT_EQ(with->size(), without->size()) << "k=" << k << " seed=" << seed;
      // Identical sets, not just sizes.
      for (CliqueId c = 0; c < with->set.size(); ++c) {
        auto a = with->set.Get(c);
        auto b = without->set.Get(c);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
    }
  }
}

TEST(LightweightTest, MatchesGcSizeOnSmallGraphs) {
  // Theorem 4 modulo tie-breaking: both implement ascending-clique-score
  // greedy with static scores, so sizes should agree on small instances
  // (ties can differ; sizes rarely do — assert within 1 and usually 0).
  int exact_matches = 0;
  const int trials = 8;
  for (uint64_t seed = 0; seed < trials; ++seed) {
    Graph g = testing::RandomGraph(30, 0.35, seed + 1000);
    auto lp = SolveLightweight(g, Opts(3, true));
    GcOptions gc_options;
    gc_options.k = 3;
    auto gc = SolveGc(g, gc_options);
    ASSERT_TRUE(lp.ok() && gc.ok());
    EXPECT_NEAR(static_cast<double>(lp->size()),
                static_cast<double>(gc->size()), 1.0);
    exact_matches += (lp->size() == gc->size());
  }
  EXPECT_GE(exact_matches, trials / 2);
}

TEST(LightweightTest, RecoversPlantedPacking) {
  PlantedCliqueSpec spec;
  spec.num_cliques = 12;
  spec.k = 4;
  spec.filler_nodes = 40;
  Rng rng(90);
  auto planted = PlantedCliques(spec, rng);
  ASSERT_TRUE(planted.ok());
  auto result = SolveLightweight(planted->graph, Opts(4, true));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), planted->planted_count);
}

TEST(LightweightTest, ParallelHeapInitMatchesSerial) {
  // Pooled HeapInit writes each root's slab row from whichever worker
  // drives it and heapifies the merged keys; the committed cliques must
  // not depend on the pool, byte for byte.
  // A clustered graph, so every k in 3..5 packs thousands of cliques.
  Rng rng(91);
  auto ws = WattsStrogatz(3000, 12, 0.1, rng);
  ASSERT_TRUE(ws.ok());
  const Graph& g = *ws;
  ThreadPool one(1), two(2), four(4);
  for (int k = 3; k <= 5; ++k) {
    auto serial = SolveLightweight(g, Opts(k, true));
    ASSERT_TRUE(serial.ok());
    ASSERT_GT(serial->size(), 100u) << "k=" << k;
    const std::vector<NodeId> expected = Flatten(serial->set);
    for (ThreadPool* pool : {&one, &two, &four}) {
      LightweightOptions par = Opts(k, true);
      par.pool = pool;
      auto parallel = SolveLightweight(g, par);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(Flatten(parallel->set), expected)
          << "k=" << k << " threads=" << pool->num_threads();
    }
  }
}

TEST(LightweightTest, MatchesEagerReference) {
  // The lazy heap refreshes a root only when its popped clique went stale;
  // the eager reference recomputes every root every step. They commit the
  // same cliques in the same order, with the same member order.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const NodeId n = static_cast<NodeId>(20 + 4 * (seed % 11));
    const double p = 0.2 + 0.05 * static_cast<double>(seed % 5);
    Graph g = testing::RandomGraph(n, p, seed + 1200);
    for (int k = 3; k <= 5; ++k) {
      const std::vector<NodeId> expected = EagerReference(g, k).Solve();
      for (bool prune : {false, true}) {
        auto result = SolveLightweight(g, Opts(k, prune));
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(Flatten(result->set), expected)
            << "n=" << n << " p=" << p << " k=" << k << " prune=" << prune;
      }
    }
  }
}

TEST(LightweightTest, ExpiredBudgetIsOot) {
  Graph g = testing::RandomGraph(400, 0.2, /*seed=*/92);
  LightweightOptions options = Opts(4, true);
  options.budget.time_ms = 0.000001;
  auto result = SolveLightweight(g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeBudgetExceeded());
}

TEST(LightweightTest, CliquesListedMatchesTrueCount) {
  Graph g = testing::RandomGraph(25, 0.45, /*seed=*/93);
  auto result = SolveLightweight(g, Opts(3, true));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.cliques_listed,
            testing::BruteForceKCliques(g, 3).size());
}

class LightweightSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int, bool>> {};

TEST_P(LightweightSweep, ValidMaximalKApproximation) {
  const auto [n, p, k, prune] = GetParam();
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph g = testing::RandomGraph(static_cast<NodeId>(n), p,
                                   seed * 101 + n * k);
    auto result = SolveLightweight(g, Opts(k, prune));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(VerifySolution(g, result->set).ok())
        << VerifySolution(g, result->set).ToString();
    // Oracle: OPT (itself verified against brute force in opt_solver_test);
    // the naive packing search is too slow on the denser sweep points.
    OptOptions opt_options;
    opt_options.k = k;
    auto optimal = SolveOpt(g, opt_options);
    ASSERT_TRUE(optimal.ok());
    EXPECT_LE(optimal->size(), static_cast<NodeId>(k) * result->size());
    EXPECT_LE(result->size(), optimal->size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LightweightSweep,
    ::testing::Combine(::testing::Values(16, 24, 32), ::testing::Values(0.3, 0.5),
                       ::testing::Values(3, 4), ::testing::Bool()));

TEST(LightweightTest, QualityAtLeastMatchesBasicOnCluey) {
  // The headline claim (Table II): LP produces more cliques than HG. On
  // small random graphs the difference is noisy, so assert the aggregate
  // over a batch is non-negative.
  int64_t advantage = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = testing::RandomGraph(60, 0.3, seed + 1100);
    auto lp = SolveLightweight(g, Opts(3, true));
    ASSERT_TRUE(lp.ok());
    BasicOptions basic;
    basic.k = 3;
    auto hg = SolveBasic(g, basic);
    ASSERT_TRUE(hg.ok());
    advantage += static_cast<int64_t>(lp->size()) -
                 static_cast<int64_t>(hg->size());
  }
  EXPECT_GE(advantage, 0);
}

}  // namespace
}  // namespace dkc
