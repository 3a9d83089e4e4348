// NeighborhoodKernel cross-checks against the pre-refactor naive
// recursions: the sorted-merge DFS that CountRec/ScoreRec, FindMin and the
// subset lambda used before they became kernel adapters is reimplemented
// here (deliberately share-nothing) and every kernel visitor must match it
// exactly — counts, scores, the min-clique *identity* (DFS-order
// tie-breaks), and enumeration order.

#include "clique/neighborhood.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/dag.h"
#include "graph/dynamic_graph.h"
#include "graph/ordering.h"
#include "test_util.h"

namespace dkc {
namespace {

std::vector<NodeId> Intersect(std::span<const NodeId> a,
                              std::span<const NodeId> b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Pre-refactor CountRec: plain sorted-merge recursion over N+(u).
Count NaiveCountRooted(const Dag& dag, NodeId u, int k) {
  if (k == 1) return 1;
  auto out = dag.OutNeighbors(u);
  if (out.size() + 1 < static_cast<size_t>(k)) return 0;
  auto rec = [&](auto&& self, int remaining,
                 std::span<const NodeId> cand) -> Count {
    if (remaining == 1) return cand.size();
    Count total = 0;
    for (NodeId v : cand) {
      auto next = Intersect(cand, dag.OutNeighbors(v));
      if (next.size() + 1 < static_cast<size_t>(remaining)) continue;
      total += self(self, remaining - 1, next);
    }
    return total;
  };
  return rec(rec, k - 1, out);
}

// Pre-refactor ScoreRec: per-node participation counts for cliques rooted
// at u (prefix includes the root).
Count NaiveScoreRooted(const Dag& dag, NodeId u, int k,
                       std::vector<Count>* counts) {
  if (k == 1) {
    ++(*counts)[u];
    return 1;
  }
  auto out = dag.OutNeighbors(u);
  if (out.size() + 1 < static_cast<size_t>(k)) return 0;
  std::vector<NodeId> prefix = {u};
  auto rec = [&](auto&& self, int remaining,
                 std::span<const NodeId> cand) -> Count {
    if (remaining == 1) {
      for (NodeId v : cand) ++(*counts)[v];
      for (NodeId p : prefix) (*counts)[p] += cand.size();
      return cand.size();
    }
    Count total = 0;
    for (NodeId v : cand) {
      auto next = Intersect(cand, dag.OutNeighbors(v));
      if (next.size() + 1 < static_cast<size_t>(remaining)) continue;
      prefix.push_back(v);
      total += self(self, remaining - 1, next);
      prefix.pop_back();
    }
    return total;
  };
  return rec(rec, k - 1, out);
}

// The k-cliques rooted at u in naive DFS order, each root first and then
// the members in the order the recursion picked them.
std::vector<std::vector<NodeId>> NaiveEnumerateRooted(const Dag& dag,
                                                      NodeId u, int k) {
  std::vector<std::vector<NodeId>> out_cliques;
  auto out = dag.OutNeighbors(u);
  if (out.size() + 1 < static_cast<size_t>(k)) return out_cliques;
  std::vector<NodeId> prefix = {u};
  auto rec = [&](auto&& self, int remaining,
                 std::span<const NodeId> cand) -> void {
    if (remaining == 1) {
      for (NodeId v : cand) {
        out_cliques.push_back(prefix);
        out_cliques.back().push_back(v);
      }
      return;
    }
    for (NodeId v : cand) {
      auto next = Intersect(cand, dag.OutNeighbors(v));
      if (next.size() + 1 < static_cast<size_t>(remaining)) continue;
      prefix.push_back(v);
      self(self, remaining - 1, next);
      prefix.pop_back();
    }
  };
  rec(rec, k - 1, out);
  return out_cliques;
}

// Pre-refactor FindMin without pruning: first-found-in-DFS-order minimum
// clique-score k-clique among valid nodes rooted at u.
bool NaiveFindMinRooted(const Dag& dag, NodeId u, int k,
                        const std::vector<uint8_t>& valid,
                        const std::vector<Count>& scores,
                        std::vector<NodeId>* best_clique, Count* best_score) {
  std::vector<NodeId> seed;
  for (NodeId v : dag.OutNeighbors(u)) {
    if (valid[v]) seed.push_back(v);
  }
  if (seed.size() + 1 < static_cast<size_t>(k)) return false;
  std::vector<NodeId> prefix = {u};
  bool have = false;
  auto rec = [&](auto&& self, int remaining, std::span<const NodeId> cand,
                 Count sum) -> void {
    if (remaining == 1) {
      for (NodeId v : cand) {
        const Count total = sum + scores[v];
        if (!have || total < *best_score) {
          have = true;
          *best_score = total;
          *best_clique = prefix;
          best_clique->push_back(v);
        }
      }
      return;
    }
    for (NodeId v : cand) {
      std::vector<NodeId> next;
      for (NodeId w : dag.OutNeighbors(v)) {
        if (valid[w] && std::binary_search(cand.begin(), cand.end(), w)) {
          next.push_back(w);
        }
      }
      if (next.size() + 1 < static_cast<size_t>(remaining)) continue;
      prefix.push_back(v);
      self(self, remaining - 1, next, sum + scores[v]);
      prefix.pop_back();
    }
  };
  rec(rec, k - 1, seed, scores[u]);
  return have;
}

TEST(NeighborhoodKernelTest, CountMatchesNaivePerRoot) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = testing::RandomGraph(32, 0.3 + 0.1 * (seed % 3), 400 + seed);
    Dag dag(g, DegeneracyOrdering(g));
    for (int k = 3; k <= 6; ++k) {
      NeighborhoodKernel kernel;
      Count total = 0;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        kernel.BuildFromRoot(dag, u);
        EXPECT_TRUE(kernel.uses_bitmap());
        const Count got = kernel.CountCliques(k - 1);
        EXPECT_EQ(got, NaiveCountRooted(dag, u, k)) << "u=" << u << " k=" << k;
        total += got;
      }
      EXPECT_EQ(total, testing::BruteForceKCliques(g, k).size());
    }
  }
}

TEST(NeighborhoodKernelTest, ScoresMatchNaivePerRoot) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = testing::RandomGraph(28, 0.35, 500 + seed);
    Dag dag(g, DegeneracyOrdering(g));
    const int k = 3 + static_cast<int>(seed % 3);
    std::vector<Count> naive(g.num_nodes(), 0);
    std::vector<Count> kernel_counts(g.num_nodes(), 0);
    NeighborhoodKernel kernel;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const Count naive_total = NaiveScoreRooted(dag, u, k, &naive);
      Count kernel_total = 0;
      if (dag.OutDegree(u) + 1 >= static_cast<Count>(k)) {
        kernel.BuildFromRoot(dag, u);
        kernel_total = kernel.ScoreCliques(k - 1, &kernel_counts);
        kernel_counts[u] += kernel_total;  // the adapter's root credit
      }
      EXPECT_EQ(kernel_total, naive_total) << "u=" << u;
    }
    EXPECT_EQ(kernel_counts, naive);
    EXPECT_EQ(naive, testing::BruteForceNodeScores(g, k));
  }
}

TEST(NeighborhoodKernelTest, MinCliqueMatchesNaiveIncludingTieBreaks) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = testing::RandomGraph(26, 0.4, 600 + seed);
    Dag dag(g, DegeneracyOrdering(g));
    const int k = 3 + static_cast<int>(seed % 2);
    Rng rng(800 + seed);
    // Random validity mask and deliberately collision-heavy scores so ties
    // are common: only DFS-first tie-breaking reproduces the naive pick.
    std::vector<uint8_t> valid(g.num_nodes(), 1);
    std::vector<Count> scores(g.num_nodes(), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      valid[u] = rng.NextBool(0.8) ? 1 : 0;
      scores[u] = rng.NextBounded(3);
    }
    NeighborhoodKernel kernel;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::vector<NodeId> naive_clique;
      Count naive_score = 0;
      const bool naive_found = NaiveFindMinRooted(dag, u, k, valid, scores,
                                                  &naive_clique, &naive_score);
      for (bool prune : {false, true}) {
        kernel.BuildFromRoot(dag, u, valid.data());
        std::vector<NodeId> rest;
        Count got_score = 0;
        const bool found = kernel.FindMinScoreClique(
            k - 1, scores, scores[u], prune, &rest, &got_score);
        ASSERT_EQ(found, naive_found) << "u=" << u << " prune=" << prune;
        if (!found) continue;
        std::vector<NodeId> got = {u};
        got.insert(got.end(), rest.begin(), rest.end());
        EXPECT_EQ(got, naive_clique) << "u=" << u << " prune=" << prune;
        EXPECT_EQ(got_score, naive_score);
      }
    }
  }
}

TEST(NeighborhoodKernelTest, SubsetEnumerationMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph base = testing::RandomGraph(24, 0.4, 700 + seed);
    DynamicGraph g(base);
    Rng rng(900 + seed);
    std::vector<NodeId> subset;
    for (NodeId u = 0; u < base.num_nodes(); ++u) {
      if (rng.NextBool(0.7)) subset.push_back(u);
    }
    const int k = 3 + static_cast<int>(seed % 2);
    NeighborhoodKernel kernel;
    kernel.BuildFromSubset(g, subset);
    std::vector<std::vector<NodeId>> found;
    kernel.ForEachClique(k, [&](std::span<const NodeId> nodes) {
      found.emplace_back(nodes.begin(), nodes.end());
      return true;
    });
    // Brute-force over the induced subgraph.
    std::vector<std::vector<NodeId>> expected;
    for (const auto& clique : testing::BruteForceKCliques(base, k)) {
      bool inside = true;
      for (NodeId u : clique) {
        if (!std::binary_search(subset.begin(), subset.end(), u)) {
          inside = false;
          break;
        }
      }
      if (inside) expected.push_back(clique);
    }
    EXPECT_EQ(testing::Canonicalize(found), testing::Canonicalize(expected));
  }
}

// q = k-1 >= 9 is past the compile-time single-word levels: one-word
// universes run the generic bitmap recursion with words_ == 1, wider ones
// with more words. Both must match the naive recursion in counts, scores
// and emission order, with rows built lazily and eagerly.
void ExpectDeepRootsMatchNaive(const Graph& g, const Dag& dag,
                               bool* saw_one_word, bool* saw_multi_word) {
  NeighborhoodKernel kernel;
  for (int k = 10; k <= 12; ++k) {
    std::vector<Count> naive_scores(g.num_nodes(), 0);
    std::vector<Count> kernel_scores(g.num_nodes(), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto naive = NaiveEnumerateRooted(dag, u, k);
      NaiveScoreRooted(dag, u, k, &naive_scores);
      if (dag.OutDegree(u) + 1 < static_cast<Count>(k)) continue;
      if (!naive.empty()) {
        (dag.OutDegree(u) <= 64 ? *saw_one_word : *saw_multi_word) = true;
      }
      for (bool eager : {false, true}) {
        kernel.BuildFromRoot(dag, u);
        ASSERT_TRUE(kernel.uses_bitmap());
        std::vector<std::vector<NodeId>> got;
        kernel.ForEachClique(
            k - 1,
            [&](std::span<const NodeId> nodes) {
              got.emplace_back(nodes.begin(), nodes.end());
              return true;
            },
            eager);
        EXPECT_EQ(got, naive) << "u=" << u << " k=" << k
                              << " eager=" << eager;
        // After a lazy walk the count completes the remaining rows.
        EXPECT_EQ(kernel.CountCliques(k - 1), naive.size())
            << "u=" << u << " k=" << k << " eager=" << eager;
      }
      kernel.BuildFromRoot(dag, u);
      const Count total = kernel.ScoreCliques(k - 1, &kernel_scores);
      kernel_scores[u] += total;
      EXPECT_EQ(total, naive.size()) << "u=" << u << " k=" << k;
    }
    EXPECT_EQ(kernel_scores, naive_scores) << "k=" << k;
    const Count listed =
        std::accumulate(naive_scores.begin(), naive_scores.end(), Count{0});
    EXPECT_GT(listed, 0u) << "no " << k << "-clique to compare";
  }
}

TEST(NeighborhoodKernelTest, DeepCliquesMatchNaiveOnOneAndManyWords) {
  bool saw_one_word = false;
  bool saw_multi_word = false;
  // Dense and degeneracy-ordered: every universe fits one word.
  Graph dense = testing::RandomGraph(32, 0.8, 1200);
  Dag dense_dag(dense, DegeneracyOrdering(dense));
  ExpectDeepRootsMatchNaive(dense, dense_dag, &saw_one_word, &saw_multi_word);
  EXPECT_TRUE(saw_one_word);

  // A hub over 90 sparse nodes holding two overlapping planted 12-cliques
  // spread across both words: under the identity ordering the hub's
  // universe is all 90 nodes (two words), the others' stay on one.
  const NodeId spokes = 90;
  Graph sparse = testing::RandomGraph(spokes, 0.3, 1201);
  GraphBuilder builder;
  for (NodeId u = 0; u < spokes; ++u) {
    for (NodeId v : sparse.Neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
    builder.AddEdge(u, spokes);  // hub
  }
  for (const auto& [first, stride] : {std::pair<NodeId, NodeId>{2, 7},
                                       std::pair<NodeId, NodeId>{9, 5}}) {
    for (NodeId i = 0; i < 12; ++i) {
      for (NodeId j = i + 1; j < 12; ++j) {
        builder.AddEdge(first + stride * i, first + stride * j);
      }
    }
  }
  Graph hub = builder.Build();
  Dag hub_dag(hub, IdentityOrdering(hub.num_nodes()));
  ASSERT_EQ(hub_dag.OutDegree(spokes), spokes);
  saw_multi_word = false;
  ExpectDeepRootsMatchNaive(hub, hub_dag, &saw_one_word, &saw_multi_word);
  EXPECT_TRUE(saw_multi_word);
}

TEST(NeighborhoodKernelTest, AlternatingBuildModesKeepsMapClean) {
  // Regression guard: a root build populates the global->local map; a
  // following subset build replaces local_nodes_ without touching the map,
  // and the next root build must still start from a clean map.
  Graph base = testing::RandomGraph(30, 0.4, 1000);
  Dag dag(base, DegeneracyOrdering(base));
  DynamicGraph dyn(base);
  std::vector<NodeId> all(base.num_nodes());
  for (NodeId u = 0; u < base.num_nodes(); ++u) all[u] = u;
  NeighborhoodKernel kernel;
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    kernel.BuildFromRoot(dag, u);
    const Count direct = kernel.CountCliques(2);
    kernel.BuildFromSubset(dyn, all);  // interleave a subset build
    kernel.BuildFromRoot(dag, u);
    EXPECT_EQ(kernel.CountCliques(2), direct) << "u=" << u;
  }
}

TEST(NeighborhoodKernelTest, EpochWrapResetsRemapStamps) {
  // The global->local map is validated by epoch stamps; PrepareMap bumps
  // the epoch per build and, on uint32 wrap, must reset every stamp before
  // restarting at epoch 1. If the reset were missing, entries stamped
  // during the arena's *first* life (epoch 1) would alias the first
  // post-wrap build: nodes outside the new universe would pass the stamp
  // check with stale local ids and corrupt rows. Force the wrap through
  // the arena seam and cross-check every root against a fresh kernel.
  Graph g = testing::RandomGraph(32, 0.4, 2025);
  Dag dag(g, DegeneracyOrdering(g));
  KernelArena arena;
  NeighborhoodKernel kernel(&arena);
  // First life: populate the map at epoch 1 (the exact stamp value the
  // post-wrap epoch restarts at).
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    kernel.BuildFromRoot(dag, u);
  }
  ASSERT_GE(arena.epoch, 1u);
  // Jump to the wrap boundary: the next PrepareMap increments MAX -> 0,
  // which must trigger the full stamp reset and land on epoch 1.
  arena.epoch = std::numeric_limits<uint32_t>::max();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    kernel.BuildFromRoot(dag, u);
    if (u == 0) {
      EXPECT_EQ(arena.epoch, 1u) << "wrap must reset the epoch to 1";
    }
    NeighborhoodKernel fresh;
    fresh.BuildFromRoot(dag, u);
    for (int k = 3; k <= 5; ++k) {
      EXPECT_EQ(kernel.CountCliques(k - 1), fresh.CountCliques(k - 1))
          << "u=" << u << " k=" << k;
    }
  }
  // A second forced wrap from the now-dirty map must behave identically.
  arena.epoch = std::numeric_limits<uint32_t>::max();
  kernel.BuildFromRoot(dag, 5);
  EXPECT_EQ(arena.epoch, 1u);
  NeighborhoodKernel fresh;
  fresh.BuildFromRoot(dag, 5);
  EXPECT_EQ(kernel.CountCliques(3), fresh.CountCliques(3));
}

TEST(NeighborhoodKernelTest, HugeSparseNeighborhoodFallsBackToMerge) {
  // Hub + ring under the *identity* ordering (degeneracy would cap every
  // out-degree, which is exactly why real roots stay on the bitmap path):
  // the hub is the highest id, so its out-neighborhood is the whole ring —
  // beyond kMaxBitmapNodes, forcing the sorted-merge path, which must
  // still count one triangle per ring edge.
  const NodeId ring = NeighborhoodKernel::kMaxBitmapNodes + 500;
  GraphBuilder builder;
  for (NodeId i = 0; i < ring; ++i) {
    builder.AddEdge(i, (i + 1) % ring);
    builder.AddEdge(i, ring);  // hub
  }
  Graph g = builder.Build();
  Dag dag(g, IdentityOrdering(g.num_nodes()));
  const NodeId hub = ring;
  ASSERT_EQ(dag.OutDegree(hub), ring);
  NeighborhoodKernel kernel;
  kernel.BuildFromRoot(dag, hub);
  EXPECT_FALSE(kernel.uses_bitmap());
  EXPECT_EQ(kernel.CountCliques(2), ring);  // triangles rooted at the hub
  // The small ring version takes the bitmap path and must agree in kind.
  const NodeId small_ring = 100;
  GraphBuilder small_builder;
  for (NodeId i = 0; i < small_ring; ++i) {
    small_builder.AddEdge(i, (i + 1) % small_ring);
    small_builder.AddEdge(i, small_ring);
  }
  Graph small = small_builder.Build();
  Dag small_dag(small, IdentityOrdering(small.num_nodes()));
  kernel.BuildFromRoot(small_dag, small_ring);
  EXPECT_TRUE(kernel.uses_bitmap());
  EXPECT_EQ(kernel.CountCliques(2), small_ring);
}

TEST(NeighborhoodKernelTest, EnumerationEarlyStops) {
  Graph g = testing::RandomGraph(20, 0.5, 1100);
  Dag dag(g, DegeneracyOrdering(g));
  NeighborhoodKernel kernel;
  int seen = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (dag.OutDegree(u) + 1 < 3) continue;
    kernel.BuildFromRoot(dag, u);
    const bool completed = kernel.ForEachClique(2, [&](std::span<const NodeId> nodes) {
      EXPECT_EQ(nodes.size(), 3u);
      EXPECT_EQ(nodes[0], u);  // root-first emission
      return ++seen < 2;
    });
    if (!completed) break;
  }
  EXPECT_EQ(seen, 2);
}

// ------------------------------------------------------- lazy row builds
TEST(LazyRowTest, RowsBuildAtMostOncePerRoot) {
  // The built-bitmap must make every row build idempotent: re-traversing
  // the same build (even with a different visitor mix) must not rebuild,
  // and the per-build counter can never exceed the universe size.
  Graph g = testing::RandomGraph(40, 0.35, 1300);
  Dag dag(g, DegeneracyOrdering(g));
  std::vector<uint8_t> valid(g.num_nodes(), 1);
  NeighborhoodKernel kernel;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    kernel.BuildFromRoot(dag, u, valid.data());
    EXPECT_EQ(kernel.rows_built(), 0u) << "build must not materialize rows";
    int hits = 0;
    kernel.ForEachClique(3, [&](std::span<const NodeId>) {
      ++hits;
      return true;
    });
    const NodeId after_first = kernel.rows_built();
    EXPECT_LE(after_first, kernel.size());
    // A second full traversal touches at least every row the first one
    // did; the counter must not move — each row was built exactly once.
    int hits_again = 0;
    kernel.ForEachClique(3, [&](std::span<const NodeId>) {
      ++hits_again;
      return true;
    });
    EXPECT_EQ(kernel.rows_built(), after_first) << "u=" << u;
    EXPECT_EQ(hits, hits_again);
    if (kernel.size() < 3) continue;  // q > s: traversals never touch rows
    // An exhaustive counting pass on the same build materializes the rest,
    // exactly up to the universe size, and is idempotent too.
    kernel.CountCliques(3);
    EXPECT_EQ(kernel.rows_built(), kernel.size());
    kernel.CountCliques(3);
    EXPECT_EQ(kernel.rows_built(), kernel.size());
  }
}

TEST(LazyRowTest, PrunedSearchesBuildFewerRowsThanEager) {
  // A star of m spokes whose only interconnection is one triangle at the
  // low-id end: under the identity ordering the hub's universe is all m
  // spokes, but a first-hit search (HG FindOne) resolves inside the
  // triangle and must leave the overwhelming majority of rows unbuilt.
  constexpr NodeId kSpokes = 60;
  GraphBuilder builder;
  const NodeId hub = kSpokes;
  for (NodeId i = 0; i < kSpokes; ++i) builder.AddEdge(i, hub);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  Graph g = builder.Build();
  Dag dag(g, IdentityOrdering(g.num_nodes()));
  NeighborhoodKernel kernel;
  kernel.BuildFromRoot(dag, hub);
  ASSERT_EQ(kernel.size(), kSpokes);
  bool found = false;
  kernel.ForEachClique(3, [&](std::span<const NodeId> nodes) {
    EXPECT_EQ(nodes.size(), 4u);
    found = true;
    return false;  // first hit wins, as in Algorithm 1's FindOne
  });
  EXPECT_TRUE(found);
  // Eager would have materialized all kSpokes rows; the lazy first-hit
  // search needs only the prefix up to the triangle.
  EXPECT_LT(kernel.rows_built(), kernel.size() / 4);
  EXPECT_GT(kernel.rows_built(), 0u);

  // Even driven to exhaustion the lazy traversal stays cheap — the degree
  // upper bound keeps the leaf-degree spokes rowless — yet finds exactly
  // the planted clique; the eager counting pass is what builds the rest.
  Count total = 0;
  kernel.ForEachClique(3, [&](std::span<const NodeId>) {
    ++total;
    return true;
  });
  EXPECT_EQ(total, 1u);  // exactly the one planted 4-clique
  EXPECT_LT(kernel.rows_built(), kernel.size() / 4);
  EXPECT_EQ(kernel.CountCliques(3), 1u);
  EXPECT_EQ(kernel.rows_built(), kernel.size());
}

TEST(LazyRowTest, FindMinScoreCliqueMatchesAcrossRowModes) {
  // Pruned FindMin builds rows lazily and unpruned FindMin eagerly;
  // interleave them with lazy enumeration on the same kernel object across
  // roots to shake out stale row/degree state between modes.
  Graph g = testing::RandomGraph(34, 0.4, 1400);
  Dag dag(g, DegeneracyOrdering(g));
  Rng rng(1500);
  std::vector<uint8_t> valid(g.num_nodes(), 1);
  std::vector<Count> scores(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) scores[u] = rng.NextBounded(4);
  NeighborhoodKernel reused;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    NeighborhoodKernel fresh;
    std::vector<NodeId> got_reused, got_fresh;
    Count score_reused = 0, score_fresh = 0;
    reused.BuildFromRoot(dag, u, valid.data());
    // Lazy enumeration first so some rows pre-exist when FindMin runs.
    reused.ForEachClique(2, [&](std::span<const NodeId>) { return false; });
    const bool found_reused = reused.FindMinScoreClique(
        3, scores, scores[u], true, &got_reused, &score_reused);
    fresh.BuildFromRoot(dag, u, valid.data());
    const bool found_fresh = fresh.FindMinScoreClique(
        3, scores, scores[u], false, &got_fresh, &score_fresh);
    ASSERT_EQ(found_reused, found_fresh) << "u=" << u;
    if (found_fresh) {
      EXPECT_EQ(got_reused, got_fresh) << "u=" << u;
      EXPECT_EQ(score_reused, score_fresh);
    }
  }
}

// ---------------------------------------------------- galloping intersect
TEST(IntersectSkewTest, GallopingMatchesMergeAcrossTheCrossover) {
  // Sweep the size ratio through the kGallopSkew crossover; both code
  // paths must agree with std::set_intersection exactly.
  Rng rng(1200);
  for (size_t small_size : {1u, 3u, 8u}) {
    for (size_t factor : {1u, 8u, 31u, 32u, 33u, 64u, 200u}) {
      const size_t large_size = small_size * factor;
      std::vector<NodeId> small_set, large_set;
      while (small_set.size() < small_size) {
        small_set.push_back(static_cast<NodeId>(rng.NextBounded(10000)));
        std::sort(small_set.begin(), small_set.end());
        small_set.erase(std::unique(small_set.begin(), small_set.end()),
                        small_set.end());
      }
      while (large_set.size() < large_size) {
        large_set.push_back(static_cast<NodeId>(rng.NextBounded(10000)));
        std::sort(large_set.begin(), large_set.end());
        large_set.erase(std::unique(large_set.begin(), large_set.end()),
                        large_set.end());
      }
      // Plant guaranteed overlaps so the intersection is non-trivial.
      for (size_t i = 0; i < small_set.size(); i += 2) {
        large_set.push_back(small_set[i]);
      }
      std::sort(large_set.begin(), large_set.end());
      large_set.erase(std::unique(large_set.begin(), large_set.end()),
                      large_set.end());

      std::vector<NodeId> expected;
      std::set_intersection(small_set.begin(), small_set.end(),
                            large_set.begin(), large_set.end(),
                            std::back_inserter(expected));
      std::vector<NodeId> got;
      IntersectSorted(small_set, large_set, &got);
      EXPECT_EQ(got, expected) << "small=" << small_size
                               << " large=" << large_set.size();
      // Argument order must not matter.
      IntersectSorted(large_set, small_set, &got);
      EXPECT_EQ(got, expected);
    }
  }
}

// The fallback's merge (see intersect.h; the exhaustive small-size sweep
// lives in intersect_test.cc) must agree with the reference on every
// overlap pattern, including the n=4096 shape.
TEST(IntersectMergeTest, MergePathsMatchReferenceAcrossOverlapPatterns) {
  Rng rng(2024);
  std::vector<NodeId> got;  // reused across cases: stale contents must die
  for (size_t n : {2u, 15u, 64u, 333u, 4096u}) {
    for (double overlap : {0.0, 0.1, 0.5, 1.0}) {
      std::vector<NodeId> a, b;
      NodeId next = 0;
      while (a.size() < n || b.size() < n) {
        next += 1 + static_cast<NodeId>(rng.NextBounded(3));
        const bool both = rng.NextBool(overlap);
        if (both) {
          if (a.size() < n) a.push_back(next);
          if (b.size() < n) b.push_back(next);
        } else if (rng.NextBool(0.5)) {
          if (a.size() < n) a.push_back(next);
        } else {
          if (b.size() < n) b.push_back(next);
        }
      }
      std::vector<NodeId> expected;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(expected));
      IntersectSorted(a, b, &got);
      EXPECT_EQ(got, expected) << "n=" << n << " overlap=" << overlap;
      IntersectSorted(b, a, &got);
      EXPECT_EQ(got, expected) << "n=" << n << " overlap=" << overlap;
    }
  }
}

TEST(IntersectMergeTest, MergeHandlesEdgeCases) {
  std::vector<NodeId> out = {99};  // stale contents must be overwritten
  IntersectSorted({}, {}, &out);
  EXPECT_TRUE(out.empty());
  const std::vector<NodeId> single = {5};
  IntersectSorted(single, single, &out);
  EXPECT_EQ(out, single);
  const std::vector<NodeId> other = {6};
  IntersectSorted(single, other, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectMergeTest, MergeAndGallopAgreeAtTheCrossover) {
  // Sizes straddling small * kGallopSkew == large flip the implementation
  // between the merge fallback and galloping; the planted pattern keeps
  // the expected intersection identical on both sides of the flip.
  Rng rng(2025);
  for (size_t small_size : {2u, 5u, 9u}) {
    std::vector<NodeId> small_set;
    for (size_t i = 0; i < small_size; ++i) {
      small_set.push_back(static_cast<NodeId>(100 * (i + 1)));
    }
    for (long delta = -1; delta <= 1; ++delta) {
      const size_t large_size =
          static_cast<size_t>(static_cast<long>(small_size * kGallopSkew) + delta);
      std::vector<NodeId> large_set;
      for (size_t i = 0; large_set.size() < large_size; ++i) {
        large_set.push_back(static_cast<NodeId>(3 * i + 1));
      }
      // Plant every other small element.
      for (size_t i = 0; i < small_set.size(); i += 2) {
        large_set.push_back(small_set[i]);
      }
      std::sort(large_set.begin(), large_set.end());
      large_set.erase(std::unique(large_set.begin(), large_set.end()),
                      large_set.end());
      std::vector<NodeId> expected;
      std::set_intersection(small_set.begin(), small_set.end(),
                            large_set.begin(), large_set.end(),
                            std::back_inserter(expected));
      std::vector<NodeId> got;
      IntersectSorted(small_set, large_set, &got);
      EXPECT_EQ(got, expected)
          << "small=" << small_size << " delta=" << delta;
      IntersectSorted(large_set, small_set, &got);
      EXPECT_EQ(got, expected)
          << "small=" << small_size << " delta=" << delta;
    }
  }
}

TEST(IntersectSkewTest, ExtremeSkewEdgeCases) {
  std::vector<NodeId> tiny = {500};
  std::vector<NodeId> big(4096);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<NodeId>(i * 2);
  std::vector<NodeId> out;
  IntersectSorted(tiny, big, &out);  // 500 = 250*2 is present
  EXPECT_EQ(out, std::vector<NodeId>{500});
  tiny[0] = 501;  // absent
  IntersectSorted(tiny, big, &out);
  EXPECT_TRUE(out.empty());
  tiny[0] = 9999;  // beyond the end
  IntersectSorted(tiny, big, &out);
  EXPECT_TRUE(out.empty());
  IntersectSorted({}, big, &out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace dkc
