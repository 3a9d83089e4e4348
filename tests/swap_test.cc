#include "dynamic/swap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "clique/kclique.h"
#include "gen/named_graphs.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "test_util.h"

namespace dkc {
namespace {

std::vector<Count> ScoresFor(const Graph& g, int k) {
  Dag dag(g, DegeneracyOrdering(g));
  return ComputeNodeScores(dag, k).per_node;
}

TEST(PackTest, EmptyCandidatesYieldEmptyPack) {
  Graph g = PaperFig5G1();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c2 =
      state.AddSolutionClique(std::vector<NodeId>{8, 9, 10});
  state.RebuildCandidatesFor(c2);
  EXPECT_TRUE(PackDisjointCandidates(state, c2).empty());
}

TEST(PackTest, SingleCandidate) {
  Graph g = PaperFig5G1();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c1 = state.AddSolutionClique(std::vector<NodeId>{2, 3, 4});
  state.RebuildCandidatesFor(c1);
  auto pack = PackDisjointCandidates(state, c1);
  ASSERT_EQ(pack.size(), 1u);
  std::sort(pack[0].begin(), pack[0].end());
  EXPECT_EQ(pack[0], (std::vector<NodeId>{0, 1, 2}));
}

TEST(PackTest, PaperFig5SwapPacksTwoDisjointCandidates) {
  // G2: C1 = (v3,v4,v5) has candidates (v1,v2,v3) and (v5,v6,v7), which are
  // disjoint — the swap the paper walks through in Section V-C.
  Graph g = PaperFig5G2();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c1 = state.AddSolutionClique(std::vector<NodeId>{2, 3, 4});
  state.AddSolutionClique(std::vector<NodeId>{8, 9, 10});
  state.RebuildCandidatesFor(c1);
  auto pack = PackDisjointCandidates(state, c1);
  EXPECT_EQ(pack.size(), 2u);
}

TEST(SwapTest, TrySwapExecutesPaperFig5Swap) {
  // Start from S = {(v3,v4,v5), (v9,v10,v11)} on G2; TrySwap on C1 must
  // replace it by (v1,v2,v3) + (v5,v6,v7), growing |S| from 2 to 3.
  Graph g = PaperFig5G2();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c1 = state.AddSolutionClique(std::vector<NodeId>{2, 3, 4});
  state.AddSolutionClique(std::vector<NodeId>{8, 9, 10});
  state.RebuildAllCandidates();

  SwapQueue queue;
  queue.push_back(state.RefOf(c1));
  SwapStats stats = TrySwapLoop(&state, &queue);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(state.solution_size(), 3u);
  std::string error;
  EXPECT_TRUE(state.CheckInvariants(&error)) << error;

  CliqueStore snap = state.Snapshot();
  std::vector<std::vector<NodeId>> cliques;
  for (CliqueId c = 0; c < snap.size(); ++c) {
    auto nodes = snap.Get(c);
    cliques.emplace_back(nodes.begin(), nodes.end());
  }
  auto canonical = testing::Canonicalize(cliques);
  EXPECT_TRUE(canonical.count({0, 1, 2}));   // v1,v2,v3
  EXPECT_TRUE(canonical.count({4, 5, 6}));   // v5,v6,v7
  EXPECT_TRUE(canonical.count({8, 9, 10}));  // v9,v10,v11
}

TEST(SwapTest, NoCommitWhenOnlyOneCandidate) {
  // G1: C1 has a single candidate; |S_dis| = 1 must NOT trigger a swap.
  Graph g = PaperFig5G1();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c1 = state.AddSolutionClique(std::vector<NodeId>{2, 3, 4});
  state.AddSolutionClique(std::vector<NodeId>{8, 9, 10});
  state.RebuildAllCandidates();

  SwapQueue queue;
  queue.push_back(state.RefOf(c1));
  SwapStats stats = TrySwapLoop(&state, &queue);
  EXPECT_EQ(stats.commits, 0u);
  EXPECT_EQ(state.solution_size(), 2u);
  EXPECT_TRUE(state.SlotAlive(c1));
}

TEST(SwapTest, StaleQueueEntriesSkipped) {
  Graph g = PaperFig5G2();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c1 = state.AddSolutionClique(std::vector<NodeId>{2, 3, 4});
  state.RebuildAllCandidates();
  SwapQueue queue;
  queue.push_back(state.RefOf(c1));
  state.RemoveSolutionClique(c1);  // entry is now stale
  SwapStats stats = TrySwapLoop(&state, &queue);
  EXPECT_EQ(stats.pops, 0u);
  EXPECT_EQ(stats.commits, 0u);
}

TEST(SwapTest, CommitReplacementWithEmptyReplacementJustRemoves) {
  Graph g = PaperFig5G1();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c2 =
      state.AddSolutionClique(std::vector<NodeId>{8, 9, 10});
  SwapQueue queue;
  CommitReplacement(&state, c2, {}, &queue);
  EXPECT_EQ(state.solution_size(), 0u);
  std::string error;
  EXPECT_TRUE(state.CheckInvariants(&error)) << error;
}

TEST(SwapTest, CommitReplacementRebuildsAffectedNeighbors) {
  // Removing C2 = (v9,v10,v11) frees v9, a neighbor of v8... in G1 the
  // chain v5-v6-v7-v8-v9 means C1 gains no candidate, but the rebuild path
  // must still run cleanly and keep invariants.
  Graph g = PaperFig5G1();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  state.AddSolutionClique(std::vector<NodeId>{2, 3, 4});
  const uint32_t c2 =
      state.AddSolutionClique(std::vector<NodeId>{8, 9, 10});
  state.RebuildAllCandidates();
  SwapQueue queue;
  CommitReplacement(&state, c2, {}, &queue);
  std::string error;
  EXPECT_TRUE(state.CheckInvariants(&error)) << error;
}

TEST(PackTest, LargeCandidateSetPacksByScoreThenRegistrationOrder) {
  // A hub clique with ~90 candidate triangles: the pack must be the greedy
  // disjoint pass over the candidates in ascending score, ties resolved by
  // registration order.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);  // solution triangle C = {0,1,2}
  for (NodeId i = 0; i < 90; ++i) {
    const NodeId a = 3 + 2 * i;
    const NodeId c = 4 + 2 * i;
    const NodeId hub = i % 3;  // spread the candidates over C's nodes
    b.AddEdge(hub, a);
    b.AddEdge(hub, c);
    b.AddEdge(a, c);  // candidate {hub, a, c}
  }
  Graph g = b.Build();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c1 = state.AddSolutionClique(std::vector<NodeId>{0, 1, 2});
  ASSERT_GE(state.RebuildCandidatesFor(c1), 90u);

  const auto cands = state.CandidatesOf(c1);  // registration order
  std::vector<size_t> order(cands.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return cands[x].score != cands[y].score ? cands[x].score < cands[y].score
                                            : x < y;
  });
  std::vector<std::vector<NodeId>> expected;
  std::vector<uint8_t> taken(g.num_nodes(), 0);
  for (size_t i : order) {
    const auto& nodes = cands[i].nodes;
    if (std::any_of(nodes.begin(), nodes.end(),
                    [&](NodeId u) { return taken[u] != 0; })) {
      continue;
    }
    for (NodeId u : nodes) taken[u] = 1;
    expected.push_back(nodes);
  }
  EXPECT_EQ(PackDisjointCandidates(state, c1), expected);
  EXPECT_GE(expected.size(), 3u);  // one disjoint pick per hub node
}

TEST(SwapTest, BudgetAbortsLoopAtPopBoundary) {
  Graph g = PaperFig5G2();
  SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
  const uint32_t c1 = state.AddSolutionClique(std::vector<NodeId>{2, 3, 4});
  state.AddSolutionClique(std::vector<NodeId>{8, 9, 10});
  state.RebuildAllCandidates();

  SwapQueue queue;
  queue.push_back(state.RefOf(c1));
  UpdateWork spent;
  spent.max_work = 1;
  spent.work = 1;  // already exhausted: the loop must not pop at all
  SwapStats stats = TrySwapLoop(&state, &queue, &spent);
  EXPECT_TRUE(stats.aborted);
  EXPECT_TRUE(spent.aborted);
  EXPECT_EQ(stats.pops, 0u);
  EXPECT_EQ(stats.commits, 0u);
  EXPECT_TRUE(queue.empty());  // abandoned entries are discarded
  EXPECT_EQ(state.solution_size(), 2u);
  std::string error;
  EXPECT_TRUE(state.CheckInvariants(&error)) << error;

  // With head-room the same swap commits and charges deterministic work.
  SwapQueue queue2;
  queue2.push_back(state.RefOf(c1));
  UpdateWork roomy;
  roomy.max_work = 1000;
  SwapStats ok_stats = TrySwapLoop(&state, &queue2, &roomy);
  EXPECT_FALSE(ok_stats.aborted);
  EXPECT_EQ(ok_stats.commits, 1u);
  EXPECT_EQ(state.solution_size(), 3u);
  EXPECT_GT(roomy.work, 0u);
}

TEST(SwapTest, SwapLoopTerminatesOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph g = testing::RandomGraph(60, 0.25, seed + 1300);
    SolutionState state(DynamicGraph(g), 3, ScoresFor(g, 3));
    // Deliberately bad initial solution: first-fit triangles in id order.
    std::vector<uint8_t> used(g.num_nodes(), 0);
    std::vector<uint32_t> slots;
    for (const auto& tri : testing::BruteForceKCliques(g, 3)) {
      if (used[tri[0]] || used[tri[1]] || used[tri[2]]) continue;
      for (NodeId u : tri) used[u] = 1;
      slots.push_back(state.AddSolutionClique(tri));
    }
    state.RebuildAllCandidates();
    const NodeId before = state.solution_size();
    SwapQueue queue;
    for (uint32_t s : slots) {
      if (state.SlotAlive(s)) queue.push_back(state.RefOf(s));
    }
    TrySwapLoop(&state, &queue);
    EXPECT_GE(state.solution_size(), before);  // swaps only grow S
    std::string error;
    EXPECT_TRUE(state.CheckInvariants(&error)) << error;
  }
}

}  // namespace
}  // namespace dkc
