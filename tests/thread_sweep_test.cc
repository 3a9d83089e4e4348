// Thread-sweep differential harness: every static solver (HG, GC, L, LP,
// OPT) on the same 52 mixed-model instances the randomized differential
// harness uses, solved serially and across 1/2/4-thread pools, asserting
// *byte-identical* solutions — same cliques, same order, same node order
// within each clique — at every thread count.
//
// This is the contract the pool plumbing claims: GC/OPT's ordered
// enumeration reduction, OPT's per-component exact-MIS solves and L/LP's
// heap passes must all be deterministic up to the last byte regardless of
// scheduling. OPT additionally runs under a *branch budget* instead of a
// wall-clock deadline: whether an instance aborts is then a property of
// the instance, not of timing, so even the abort outcomes must agree
// across thread counts.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/opt_solver.h"
#include "core/solver.h"
#include "core/verify.h"
#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dkc {
namespace {

std::vector<std::vector<NodeId>> ToVectors(const CliqueStore& set) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(set.size());
  for (CliqueId c = 0; c < set.size(); ++c) {
    const auto clique = set.Get(c);
    out.emplace_back(clique.begin(), clique.end());
  }
  return out;
}

// Deterministic OPT abort threshold: large enough that most of the mixed
// instances solve to optimality, small enough that the planted-partition
// triangle instances (whose clique-graph MIS is genuinely hard) abort in
// well under a second. Either outcome must be identical at every thread
// count.
constexpr uint64_t kOptBranchBudget = 40000;

TEST(ThreadSweepTest, HeuristicSolutionsAreByteIdenticalAcrossThreadCounts) {
  constexpr Method kMethods[] = {Method::kHG, Method::kGC, Method::kL,
                                 Method::kLP};
  constexpr int kInstances = 52;
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* pools[] = {&pool1, &pool2, &pool4};
  for (int case_index = 0; case_index < kInstances; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7000);
    const int k = 3 + case_index % 3;
    for (Method method : kMethods) {
      SCOPED_TRACE(MethodName(method));
      SolverOptions options;
      options.k = k;
      options.method = method;
      auto serial = Solve(g, options);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      const auto expected = ToVectors(serial->set);
      EXPECT_TRUE(VerifySolution(g, serial->set).ok());
      for (ThreadPool* pool : pools) {
        SCOPED_TRACE("threads=" + std::to_string(pool->num_threads()));
        options.pool = pool;
        // Byte-identical: same cliques, same order, no canonicalization.
        // SolverOptions::partitions is ignored, so setting it changes
        // nothing either.
        for (int partitions : {0, 4}) {
          SCOPED_TRACE("partitions=" + std::to_string(partitions));
          options.partitions = partitions;
          auto pooled = Solve(g, options);
          ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
          EXPECT_EQ(ToVectors(pooled->set), expected);
        }
        options.partitions = 0;
      }
      options.pool = nullptr;
    }
  }
}

TEST(ThreadSweepTest, OptOutcomesAreByteIdenticalAcrossThreadCounts) {
  constexpr int kInstances = 52;
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* pools[] = {&pool1, &pool2, &pool4};
  int solved = 0;
  int aborted = 0;
  for (int case_index = 0; case_index < kInstances; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7000);
    OptOptions options;
    options.k = 3 + case_index % 3;
    options.budget.max_branch_nodes = kOptBranchBudget;
    auto serial = SolveOpt(g, options);
    if (serial.ok()) {
      ++solved;
      EXPECT_TRUE(VerifySolution(g, serial->set).ok());
    } else {
      ++aborted;
    }
    for (ThreadPool* pool : pools) {
      SCOPED_TRACE("threads=" + std::to_string(pool->num_threads()));
      options.pool = pool;
      auto pooled = SolveOpt(g, options);
      ASSERT_EQ(pooled.ok(), serial.ok())
          << (pooled.ok() ? "pooled solved but serial aborted"
                          : pooled.status().ToString());
      if (serial.ok()) {
        EXPECT_EQ(ToVectors(pooled->set), ToVectors(serial->set));
      }
    }
    options.pool = nullptr;
  }
  // The budget must actually bite on the hard instances yet leave the bulk
  // solvable, or the sweep silently degenerates into testing one path.
  EXPECT_GE(solved, 40) << "branch budget aborts too much of the sweep";
  EXPECT_GE(aborted, 1) << "branch budget never engaged; raise difficulty";
}

// ---------------------------------------------------------------------------
// Dynamic engine sweep: the same 10 random update streams the differential
// harness fuzzes, pushed through ApplyBatch in epochs of 1 (what
// InsertEdge/DeleteEdge run), 8 and 64, serially and across 1/2/4-thread
// pools, with and without a per-update work budget. The pool only runs
// Build (the initial solve and index build); epoch maintenance is serial,
// and the budget's max_branch_nodes cap is deterministic by design. So at
// every thread count the maintained solution must be byte-identical after
// every epoch, and the per-epoch work/abort traces must match the serial
// run exactly.

struct EpochTrace {
  std::vector<uint8_t> aborted;        // per epoch
  std::vector<uint64_t> work;          // per epoch
  std::vector<uint64_t> rebuild_cuts;  // per epoch (mid-DFS aborts)
  std::vector<uint64_t> dirty;         // per epoch (deduped rebuild slots)
  std::vector<std::vector<std::vector<NodeId>>> snapshots;  // per epoch
  uint64_t dirty_rebuilds = 0;         // lifetime deduped-rebuild total
  NodeId final_size = 0;
};

EpochTrace RunEpochStream(const Graph& initial,
                          const std::vector<UpdateOp>& ops, int k,
                          ThreadPool* pool, uint64_t max_branch_nodes,
                          size_t epoch_size) {
  DynamicOptions options;
  options.k = k;
  options.pool = pool;
  options.update_budget.max_branch_nodes = max_branch_nodes;
  auto solver = DynamicSolver::Build(initial, options);
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  EpochTrace trace;
  const std::span<const UpdateOp> all(ops);
  for (size_t i = 0; i < all.size(); i += epoch_size) {
    const Status status =
        solver->ApplyBatch(all.subspan(i, std::min(epoch_size,
                                                   all.size() - i)));
    EXPECT_TRUE(status.ok()) << status.ToString();
    trace.aborted.push_back(solver->last_batch_stats().aborted() ? 1 : 0);
    trace.work.push_back(solver->last_batch_stats().work);
    trace.rebuild_cuts.push_back(solver->last_batch_stats().rebuild_cuts);
    trace.dirty.push_back(solver->last_batch_stats().dirty_slots);
    trace.snapshots.push_back(ToVectors(solver->Snapshot()));
  }
  trace.dirty_rebuilds = solver->batch_dirty_rebuilds();
  trace.final_size = solver->solution_size();
  std::string error;
  EXPECT_TRUE(solver->CheckInvariants(&error)) << error;
  // Budgeted or not, the packing must end valid and maximal: a cut
  // rebuild may cost growth, never maximality.
  const Status valid =
      VerifySolution(solver->graph().ToGraph(), solver->Snapshot());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  if (max_branch_nodes == 0) {
    // Only the unbudgeted runs promise a complete index — a budget may cut
    // a rebuild mid-enumeration by design.
    EXPECT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;
  }
  return trace;
}

TEST(ThreadSweepTest, BatchedStreamsAreByteIdenticalAcrossThreadCounts) {
  constexpr int kStreams = 10;
  constexpr int kUpdatesPerStream = 220;
  constexpr size_t kEpochSizes[] = {1, 8, 64};
  // Per-update cap; the epoch budget scales with the epoch's op count.
  // Small enough that modest swap cascades hit it at epoch_size=1, large
  // enough that most updates complete — both regimes must be exercised.
  constexpr uint64_t kUpdateWorkBudget = 8;
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* pools[] = {&pool1, &pool2, &pool4};

  uint64_t dedup_savings = 0;  // epochs where dirty slots < epoch updates
  // Budget regimes of the one-op epochs.
  uint64_t budget_aborts = 0;
  uint64_t budget_completions = 0;
  uint64_t budget_rebuild_cuts = 0;
  for (int stream = 0; stream < kStreams; ++stream) {
    SCOPED_TRACE("stream=" + std::to_string(stream));
    Rng rng(7300 + static_cast<uint64_t>(stream) * 97);
    const NodeId n = 80 + static_cast<NodeId>(stream % 3) * 10;
    const double p = 0.10 + 0.02 * static_cast<double>(stream % 4);
    const Graph initial = ErdosRenyi(n, p, rng).value();
    const int k = 3 + stream % 2;
    const auto ops = MakeChurnStream(initial, kUpdatesPerStream, rng);

    for (uint64_t budget : {uint64_t{0}, kUpdateWorkBudget}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      for (size_t epoch_size : kEpochSizes) {
        SCOPED_TRACE("epoch_size=" + std::to_string(epoch_size));
        const EpochTrace serial =
            RunEpochStream(initial, ops, k, nullptr, budget, epoch_size);
        if (budget == 0) {
          for (size_t e = 0; e < serial.aborted.size(); ++e) {
            ASSERT_EQ(serial.aborted[e], 0)
                << "unlimited budget aborted an epoch";
            ASSERT_EQ(serial.rebuild_cuts[e], 0u)
                << "unlimited budget cut a rebuild";
          }
        } else if (epoch_size == 1) {
          for (size_t e = 0; e < serial.aborted.size(); ++e) {
            (serial.aborted[e] != 0 ? budget_aborts : budget_completions) += 1;
            budget_rebuild_cuts += serial.rebuild_cuts[e];
          }
        }
        if (epoch_size > 1) {
          for (size_t e = 0; e < serial.dirty.size(); ++e) {
            const size_t updates_in_epoch =
                std::min(epoch_size, ops.size() - e * epoch_size);
            if (serial.dirty[e] < updates_in_epoch) ++dedup_savings;
          }
        }
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE("threads=" + std::to_string(pool->num_threads()));
          const EpochTrace pooled =
              RunEpochStream(initial, ops, k, pool, budget, epoch_size);
          // Identical abort outcomes, epoch by epoch — including where the
          // budget cut a rebuild enumeration mid-DFS (the pooled fan-out
          // replays the serial DFS's truncation point exactly)...
          EXPECT_EQ(pooled.aborted, serial.aborted);
          EXPECT_EQ(pooled.work, serial.work);
          EXPECT_EQ(pooled.rebuild_cuts, serial.rebuild_cuts);
          EXPECT_EQ(pooled.dirty, serial.dirty);
          // ...and byte-identical solutions after every epoch: same
          // cliques, same order, same node order within each clique.
          EXPECT_EQ(pooled.snapshots, serial.snapshots);
          EXPECT_EQ(pooled.dirty_rebuilds, serial.dirty_rebuilds);
          EXPECT_EQ(pooled.final_size, serial.final_size);
        }
      }
    }
  }
  // The dedup must actually engage somewhere in the sweep, or the batched
  // path degenerates into a loop of one-op epochs.
  EXPECT_GE(dedup_savings, 50u) << "no epoch ever merged rebuild work";
  // The budgeted one-op sweep must exercise both regimes — and the
  // mid-rebuild abort path — or it proves nothing.
  EXPECT_GE(budget_aborts, 10u) << "work budget never bit; lower it";
  EXPECT_GE(budget_completions, 100u) << "work budget starves every update";
  EXPECT_GE(budget_rebuild_cuts, 10u)
      << "work budget never cut a rebuild mid-enumeration";
}

}  // namespace
}  // namespace dkc
