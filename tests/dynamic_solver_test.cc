#include "dynamic/dynamic_solver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/verify.h"
#include "gen/named_graphs.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace dkc {
namespace {

DynamicOptions Opts(int k) {
  DynamicOptions options;
  options.k = k;
  return options;
}

// Maximality of the maintained solution against the *current* graph.
void ExpectMaximal(const DynamicSolver& solver) {
  Graph current = solver.graph().ToGraph();
  CliqueStore snap = solver.Snapshot();
  EXPECT_TRUE(VerifySolution(current, snap).ok())
      << VerifySolution(current, snap).ToString();
}

TEST(DynamicSolverTest, BuildSeedsFromStaticSolver) {
  auto solver = DynamicSolver::Build(PaperFig2Graph(), Opts(3));
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ(solver->solution_size(), 3u);
  EXPECT_GE(solver->build_stats().index_ms, 0.0);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  ExpectMaximal(*solver);
}

TEST(DynamicSolverTest, PaperFig5InsertionTriggersSwap) {
  // Section V-C: inserting (v5,v7) into G1 lets TrySwap replace (v3,v4,v5)
  // with (v1,v2,v3) + (v5,v6,v7): |S| grows 2 -> 3.
  auto solver = DynamicSolver::Build(PaperFig5G1(), Opts(3));
  ASSERT_TRUE(solver.ok());
  ASSERT_EQ(solver->solution_size(), 2u);
  ASSERT_TRUE(solver->InsertEdge(4, 6).ok());  // (v5, v7)
  EXPECT_EQ(solver->solution_size(), 3u);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  ExpectMaximal(*solver);
}

TEST(DynamicSolverTest, PaperFig5DeletionShrinksBackGracefully) {
  auto solver = DynamicSolver::Build(PaperFig5G2(), Opts(3));
  ASSERT_TRUE(solver.ok());
  ASSERT_EQ(solver->solution_size(), 3u);
  ASSERT_TRUE(solver->DeleteEdge(4, 6).ok());  // remove (v5, v7) again
  // The paper's walkthrough: S becomes {(v1,v2,v3), (v9,v10,v11)} or any
  // other maximum packing of G1, which has size 2.
  EXPECT_EQ(solver->solution_size(), 2u);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  ExpectMaximal(*solver);
}

TEST(DynamicSolverTest, BuildFromSolutionSeedsExactly) {
  Graph g = PaperFig2Graph();
  // Example 1's maximal-but-not-maximum S1; maximal, so a legal seed.
  CliqueStore seed(3);
  seed.Add(std::vector<NodeId>{2, 4, 5});  // v3,v5,v6
  seed.Add(std::vector<NodeId>{6, 7, 8});  // v7,v8,v9
  auto solver = DynamicSolver::BuildFromSolution(g, seed, Opts(3));
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  EXPECT_EQ(solver->solution_size(), 2u);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  // Updates still work on the seeded state.
  ASSERT_TRUE(solver->DeleteEdge(2, 4).ok());
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  ExpectMaximal(*solver);
}

TEST(DynamicSolverTest, BuildFromSolutionRejectsWrongK) {
  CliqueStore seed(4);
  auto solver = DynamicSolver::BuildFromSolution(PaperFig2Graph(), seed,
                                                 Opts(3));
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), Status::Code::kInvalidArgument);
}

TEST(DynamicSolverTest, BuildFromSolutionRejectsInvalidCliques) {
  CliqueStore seed(3);
  seed.Add(std::vector<NodeId>{0, 1, 2});  // not a clique in Fig. 2
  auto solver = DynamicSolver::BuildFromSolution(PaperFig2Graph(), seed,
                                                 Opts(3));
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), Status::Code::kCorruption);
}

TEST(DynamicSolverTest, BuildFromSolutionRejectsNonMaximalSeed) {
  CliqueStore seed(3);
  seed.Add(std::vector<NodeId>{4, 5, 7});  // leaves (v2,v4,v9) packable
  auto solver = DynamicSolver::BuildFromSolution(PaperFig2Graph(), seed,
                                                 Opts(3));
  ASSERT_FALSE(solver.ok());
}

TEST(DynamicSolverTest, BuildFromSolutionMatchesBuildBehaviour) {
  // Seeding with LP's own output must behave like Build() end to end.
  Graph g = testing::RandomGraph(60, 0.25, 4242);
  SolverOptions lp;
  lp.k = 3;
  lp.method = Method::kLP;
  auto solved = Solve(g, lp);
  ASSERT_TRUE(solved.ok());
  auto seeded = DynamicSolver::BuildFromSolution(g, solved->set, Opts(3));
  auto direct = DynamicSolver::Build(g, Opts(3));
  ASSERT_TRUE(seeded.ok() && direct.ok());
  EXPECT_EQ(seeded->solution_size(), direct->solution_size());
  EXPECT_EQ(seeded->index_size(), direct->index_size());
}

TEST(DynamicSolverTest, InsertDuplicateEdgeRejected) {
  auto solver = DynamicSolver::Build(PaperFig2Graph(), Opts(3));
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ(solver->InsertEdge(0, 2).code(),
            Status::Code::kInvalidArgument);
}

TEST(DynamicSolverTest, DeleteMissingEdgeRejected) {
  auto solver = DynamicSolver::Build(PaperFig2Graph(), Opts(3));
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ(solver->DeleteEdge(0, 8).code(), Status::Code::kNotFound);
}

TEST(DynamicSolverTest, InsertBetweenTwoSolutionCliquesIsNoop) {
  auto solver = DynamicSolver::Build(PaperFig5G1(), Opts(3));
  ASSERT_TRUE(solver.ok());
  const NodeId before = solver->solution_size();
  // v4 (in C1) to v10 (in C2): both non-free.
  ASSERT_TRUE(solver->InsertEdge(3, 9).ok());
  EXPECT_EQ(solver->solution_size(), before);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
}

TEST(DynamicSolverTest, InsertFormingFreeCliqueAddsDirectly) {
  // G1 free nodes: v1? No — v1,v2 are in C(v1,v2,v3)? The LP seed solution
  // may differ from the paper's; rebuild a controlled case instead: start
  // from a triangle-pair graph where two free nodes await one edge.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);  // solution triangle
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);  // path among free nodes
  auto solver = DynamicSolver::Build(b.Build(), Opts(3));
  ASSERT_TRUE(solver.ok());
  ASSERT_EQ(solver->solution_size(), 1u);
  ASSERT_TRUE(solver->InsertEdge(3, 5).ok());  // closes free triangle
  EXPECT_EQ(solver->solution_size(), 2u);
  ExpectMaximal(*solver);
}

TEST(DynamicSolverTest, DeletionInsideSolutionCliqueRepacks) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  auto solver = DynamicSolver::Build(b.Build(), Opts(3));
  ASSERT_TRUE(solver.ok());
  ASSERT_EQ(solver->solution_size(), 1u);
  ASSERT_TRUE(solver->DeleteEdge(0, 1).ok());
  EXPECT_EQ(solver->solution_size(), 0u);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  ExpectMaximal(*solver);
}

TEST(DynamicSolverTest, DeletionOutsideSolutionKeepsSize) {
  auto solver = DynamicSolver::Build(PaperFig2Graph(), Opts(3));
  ASSERT_TRUE(solver.ok());
  const NodeId before = solver->solution_size();
  // Find an edge whose endpoints are in different cliques of S (or free).
  Graph g = solver->graph().ToGraph();
  CliqueStore snap = solver->Snapshot();
  std::vector<uint32_t> owner(g.num_nodes(), UINT32_MAX);
  for (CliqueId c = 0; c < snap.size(); ++c) {
    for (NodeId u : snap.Get(c)) owner[u] = c;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v && (owner[u] == UINT32_MAX || owner[u] != owner[v])) {
        ASSERT_TRUE(solver->DeleteEdge(u, v).ok());
        EXPECT_EQ(solver->solution_size(), before);
        std::string error;
        EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
        return;
      }
    }
  }
  GTEST_SKIP() << "no cross-clique edge found";
}

TEST(DynamicSolverTest, InsertEdgeWithNewNodeGrowsGraph) {
  auto solver = DynamicSolver::Build(PaperFig2Graph(), Opts(3));
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE(solver->InsertEdge(0, 20).ok());
  EXPECT_EQ(solver->graph().num_nodes(), 21u);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
}

std::string StateBytes(const DynamicSolver& solver) {
  std::string bytes;
  solver.state().SerializeGraphTo(&bytes);
  solver.state().SerializeStateTo(&bytes);
  return bytes;
}

// An insert naming a huge node id used to grow the graph to billions of
// nodes and die on bad_alloc; it must be a clean refusal that leaves the
// engine exactly as it was.
TEST(DynamicSolverTest, InsertEdgePastGrowthLimitIsRefused) {
  auto solver = DynamicSolver::Build(PaperFig2Graph(), Opts(3));
  ASSERT_TRUE(solver.ok());
  const NodeId n = solver->graph().num_nodes();
  const std::string before = StateBytes(*solver);
  EXPECT_EQ(solver->InsertEdge(0, 3000000000u).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(solver->graph().num_nodes(), n);
  EXPECT_EQ(StateBytes(*solver), before);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;

  // A small graph may grow by kNodeIdGrowthSlack ids: the first id past
  // that is refused, the last one inside it is admitted.
  EXPECT_EQ(solver->InsertEdge(n + kNodeIdGrowthSlack, 0).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(StateBytes(*solver), before);
  ASSERT_TRUE(solver->InsertEdge(0, n + kNodeIdGrowthSlack - 1).ok());
  EXPECT_EQ(solver->graph().num_nodes(), n + kNodeIdGrowthSlack);
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
}

// Past 65536 nodes the limit is 2n, with n taken when the call starts: a
// batch cannot climb past it by growing the graph op by op.
TEST(DynamicSolverTest, BatchGrowthLimitIsTwiceTheStartingNodeCount) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  builder.EnsureNode(99999);
  auto solver = DynamicSolver::Build(builder.Build(), Opts(3));
  ASSERT_TRUE(solver.ok());
  ASSERT_EQ(solver->graph().num_nodes(), 100000u);
  const std::vector<UpdateOp> admitted = {{true, {0, 199999}}};
  EXPECT_TRUE(solver->ValidateBatch(admitted).ok());
  const std::vector<UpdateOp> refused = {{true, {0, 200000}}};
  EXPECT_EQ(solver->ValidateBatch(refused).code(),
            Status::Code::kInvalidArgument);
  const std::vector<UpdateOp> climbing = {{true, {0, 150000}},
                                          {true, {1, 250000}}};
  const std::string before = StateBytes(*solver);
  const Status status = solver->ApplyBatch(climbing);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("batch op 1"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(solver->graph().num_nodes(), 100000u);
  EXPECT_EQ(StateBytes(*solver), before);
}

// Random churn: invariants and maximality must hold after every update,
// and the final size must be close to a from-scratch LP solve.
class DynamicChurnSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DynamicChurnSweep, InvariantsSurviveChurn) {
  const auto [k, seed] = GetParam();
  Rng rng(seed);
  Graph g = testing::RandomGraph(50, 0.25, seed + 1400);
  auto solver = DynamicSolver::Build(g, Opts(k));
  ASSERT_TRUE(solver.ok());

  std::vector<std::pair<NodeId, NodeId>> deleted;
  for (int step = 0; step < 120; ++step) {
    const bool do_insert = !deleted.empty() && rng.NextBool(0.5);
    if (do_insert) {
      const size_t i = rng.NextBounded(deleted.size());
      auto [u, v] = deleted[i];
      deleted.erase(deleted.begin() + static_cast<ptrdiff_t>(i));
      ASSERT_TRUE(solver->InsertEdge(u, v).ok());
    } else {
      // Delete a random existing edge.
      const Graph current = solver->graph().ToGraph();
      if (current.num_edges() == 0) continue;
      Count target = rng.NextBounded(current.num_edges());
      for (NodeId u = 0; u < current.num_nodes(); ++u) {
        for (NodeId v : current.Neighbors(u)) {
          if (u < v && target-- == 0) {
            ASSERT_TRUE(solver->DeleteEdge(u, v).ok());
            deleted.emplace_back(u, v);
          }
        }
      }
    }
    std::string error;
    ASSERT_TRUE(solver->CheckInvariants(&error))
        << "step " << step << ": " << error;
    // The completeness audit is what would catch a stale candidate (kept
    // though invalid) or a forgotten registration — classes of index rot
    // CheckInvariants cannot see.
    ASSERT_TRUE(solver->CheckCandidateCompleteness(&error))
        << "step " << step << ": " << error;
  }
  ExpectMaximal(*solver);

  // Quality: within k-approximation of a fresh static solve (both are
  // maximal, so both are k-approximations of the same optimum).
  SolverOptions fresh;
  fresh.k = k;
  fresh.method = Method::kLP;
  auto from_scratch = Solve(solver->graph().ToGraph(), fresh);
  ASSERT_TRUE(from_scratch.ok());
  EXPECT_LE(from_scratch->size(),
            static_cast<NodeId>(k) * solver->solution_size() +
                (from_scratch->size() == 0 ? 0u : 0u));
}

INSTANTIATE_TEST_SUITE_P(
    Churn, DynamicChurnSweep,
    ::testing::Combine(::testing::Values(3, 4),
                       ::testing::Range<uint64_t>(0, 4)));

// Satellite-1 regression: InsertEdge's both-endpoints-free path adds a
// brand-new all-free clique, consuming free nodes that other cliques'
// candidates were using. Those candidates must die with the consumption —
// a stale survivor would be packed into the solution by a follow-up
// DeleteEdge and break disjointness.
TEST(DynamicSolverTest, FreeCliqueInsertionKillsOtherCliquesCandidates) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);  // seed solution triangle C = {0,1,2}
  b.AddEdge(0, 3);
  b.AddEdge(0, 4);
  b.AddEdge(3, 4);  // X = {0,3,4}: a candidate of C through free 3,4
  b.AddEdge(4, 5);
  b.AddEdge(4, 6);  // {4,5,6} closes into a free triangle once 5-6 lands
  Graph g = b.Build();

  CliqueStore seed(3);
  seed.Add(std::vector<NodeId>{0, 1, 2});
  auto solver = DynamicSolver::BuildFromSolution(g, seed, Opts(3));
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  ASSERT_EQ(solver->index_size(), 1u);  // exactly X

  // Both endpoints free; FindFreeCliqueWithEdge finds {4,5,6} and consumes
  // node 4 — X must die with it.
  ASSERT_TRUE(solver->InsertEdge(5, 6).ok());
  EXPECT_EQ(solver->solution_size(), 2u);
  EXPECT_EQ(solver->index_size(), 0u);
  std::string error;
  ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
  ASSERT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;

  // The trip-wire: breaking C packs its surviving candidates into S. A
  // stale X would resurrect {0,3,4} with node 4 already owned by {4,5,6}.
  ASSERT_TRUE(solver->DeleteEdge(0, 1).ok());
  EXPECT_EQ(solver->solution_size(), 1u);
  ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
  ASSERT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;
  ExpectMaximal(*solver);
}

// Same shape under churn: free-clique insertions interleaved with deletes
// that immediately repack the consumed candidates' owners.
TEST(DynamicSolverTest, FreeCliqueInsertionChurnKeepsIndexExact) {
  Rng rng(9100);
  Graph g = testing::RandomGraph(60, 0.18, 9100);
  auto solver = DynamicSolver::Build(g, Opts(3));
  ASSERT_TRUE(solver.ok());
  std::vector<std::pair<NodeId, NodeId>> deleted;
  for (int step = 0; step < 150; ++step) {
    if (!deleted.empty() && rng.NextBool(0.5)) {
      const size_t i = rng.NextBounded(deleted.size());
      const auto [u, v] = deleted[i];
      deleted.erase(deleted.begin() + static_cast<ptrdiff_t>(i));
      ASSERT_TRUE(solver->InsertEdge(u, v).ok());
    } else {
      const Graph current = solver->graph().ToGraph();
      if (current.num_edges() == 0) continue;
      Count target = rng.NextBounded(current.num_edges());
      for (NodeId u = 0; u < current.num_nodes(); ++u) {
        for (NodeId v : current.Neighbors(u)) {
          if (u < v && target-- == 0) {
            ASSERT_TRUE(solver->DeleteEdge(u, v).ok());
            deleted.emplace_back(u, v);
          }
        }
      }
    }
    std::string error;
    ASSERT_TRUE(solver->CheckCandidateCompleteness(&error))
        << "step " << step << ": " << error;
  }
}

// The paper's Fig. 5(a) solution S = {(v3,v4,v5), (v9,v10,v11)} — seeding
// it exactly (instead of whatever LP picks) pins the insertion of (v5,v7)
// to the one-endpoint-free path, where TrySwap normally grows |S| 2 -> 3.
StatusOr<DynamicSolver> Fig5Solver(const DynamicOptions& options) {
  CliqueStore seed(3);
  seed.Add(std::vector<NodeId>{2, 3, 4});    // v3,v4,v5
  seed.Add(std::vector<NodeId>{8, 9, 10});   // v9,v10,v11
  return DynamicSolver::BuildFromSolution(PaperFig5G1(), seed, options);
}

TEST(DynamicSolverTest, UpdateBudgetAbortIsSurfacedAndSolutionStaysValid) {
  // A one-unit work cap exhausts before the first swap pop, so the growth
  // is skipped — but the solution must stay a valid (previous) disjoint
  // set and the abort must be surfaced, not silent.
  DynamicOptions options = Opts(3);
  options.update_budget.max_branch_nodes = 1;
  auto solver = Fig5Solver(options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  ASSERT_EQ(solver->solution_size(), 2u);
  ASSERT_TRUE(solver->InsertEdge(4, 6).ok());
  EXPECT_TRUE(solver->last_update_stats().aborted());
  EXPECT_EQ(solver->aborted_updates(), 1u);
  EXPECT_GE(solver->last_update_stats().work, 1u);
  EXPECT_EQ(solver->last_update_stats().swaps.commits, 0u);
  EXPECT_EQ(solver->solution_size(), 2u);  // growth skipped, not corrupted
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  Graph current = solver->graph().ToGraph();
  EXPECT_TRUE(VerifyDisjointCliques(current, solver->Snapshot()).ok());
}

TEST(DynamicSolverTest, UnlimitedBudgetNeverAborts) {
  auto solver = Fig5Solver(Opts(3));
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  ASSERT_TRUE(solver->InsertEdge(4, 6).ok());
  EXPECT_FALSE(solver->last_update_stats().aborted());
  EXPECT_EQ(solver->aborted_updates(), 0u);
  EXPECT_EQ(solver->last_update_stats().swaps.commits, 1u);
  EXPECT_GT(solver->last_update_stats().work, 0u);
  EXPECT_EQ(solver->solution_size(), 3u);
}

TEST(DynamicSolverTest, ErroredUpdatesResetLastUpdateStats) {
  // last_update_stats() describes the *most recent call*: a rejected
  // duplicate-insert or missing-delete must not leave the previous
  // update's work/abort outcome dangling.
  auto solver = Fig5Solver(Opts(3));
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  ASSERT_TRUE(solver->InsertEdge(4, 6).ok());
  ASSERT_GT(solver->last_update_stats().work, 0u);
  EXPECT_FALSE(solver->InsertEdge(4, 6).ok());  // duplicate
  EXPECT_EQ(solver->last_update_stats().work, 0u);
  EXPECT_EQ(solver->last_update_stats().swaps.commits, 0u);
  EXPECT_FALSE(solver->DeleteEdge(0, 7).ok());  // no such edge
  EXPECT_EQ(solver->last_update_stats().work, 0u);
  EXPECT_FALSE(solver->last_update_stats().aborted());
}

// Satellite-2 regression: long delete-heavy streams used to grow stale refs
// without bound in every per-node list except the one KillCandidatesWithEdge
// happened to scan. The bounded compaction keeps the total ref count within
// the documented linear envelope at every public-call boundary.
TEST(DynamicSolverTest, NodeCandRefsStayBoundedOverLongStreams) {
  Rng rng(9200);
  Graph g = testing::RandomGraph(120, 0.12, 9200);
  auto solver = DynamicSolver::Build(g, Opts(3));
  ASSERT_TRUE(solver.ok());

  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  std::vector<std::pair<NodeId, NodeId>> deleted;
  size_t max_refs = 0;
  for (int update = 0; update < 10000; ++update) {
    // Delete-heavy: 70% deletions while edges remain.
    const bool do_delete = !edges.empty() && rng.NextBool(0.7);
    if (do_delete) {
      const size_t pick = rng.NextBounded(edges.size());
      const auto [u, v] = edges[pick];
      edges[pick] = edges.back();
      edges.pop_back();
      ASSERT_TRUE(solver->DeleteEdge(u, v).ok());
      deleted.emplace_back(u, v);
    } else if (!deleted.empty()) {
      const size_t pick = rng.NextBounded(deleted.size());
      const auto [u, v] = deleted[pick];
      deleted[pick] = deleted.back();
      deleted.pop_back();
      ASSERT_TRUE(solver->InsertEdge(u, v).ok());
      edges.emplace_back(u, v);
    }
    max_refs = std::max(max_refs, solver->node_cand_ref_count());
    // Every update ends at a public-call boundary, where the compaction
    // envelope must hold: refs <= 2 * alive refs + n + 64.
    const size_t bound = 2 * 3 * static_cast<size_t>(solver->index_size()) +
                         solver->graph().num_nodes() + 64;
    ASSERT_LE(solver->node_cand_ref_count(), bound)
        << "stale refs escaped the compaction bound at update " << update;
  }
  EXPECT_GT(max_refs, 0u);
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  EXPECT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;
}

TEST(DynamicSolverTest, InsertionNeverShrinksSolution) {
  Rng rng(1500);
  Graph g = testing::RandomGraph(40, 0.15, 1500);
  auto solver = DynamicSolver::Build(g, Opts(3));
  ASSERT_TRUE(solver.ok());
  NodeId last = solver->solution_size();
  for (int i = 0; i < 60; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(40));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(40));
    if (u == v || solver->graph().HasEdge(u, v)) continue;
    ASSERT_TRUE(solver->InsertEdge(u, v).ok());
    EXPECT_GE(solver->solution_size(), last);
    last = solver->solution_size();
  }
}

}  // namespace
}  // namespace dkc
