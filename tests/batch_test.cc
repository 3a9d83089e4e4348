// Epoch-batched ingestion: ApplyBatch semantics, validation atomicity,
// per-epoch stats, and the published SolutionView.
//
// The heavy cross-thread / cross-batch-size byte-identity sweep lives in
// thread_sweep_test.cc; this file fuzzes the batched engine's *internal*
// contracts — candidate-index completeness after every epoch, atomic
// rejection of invalid batches (including intra-batch duplicates),
// sequential intra-batch semantics (insert-then-delete of the same edge is
// a valid, self-canceling pair), stats bookkeeping, and reader-visible
// view consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/verify.h"
#include "dynamic/candidate_index.h"
#include "dynamic/dynamic_solver.h"
#include "dynamic/solution_view.h"
#include "dynamic/workload.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "io/fault.h"
#include "store/store.h"
#include "test_util.h"
#include "util/rng.h"

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

// Every field of `view` equals a from-scratch build over `solver`'s state,
// and the groups follow the state's live slots in ascending order.
void ExpectViewMatchesFreshBuild(const DynamicSolver& solver,
                                 const SolutionView& view) {
  const auto fresh = BuildSolutionView(solver.state(), solver.epoch(),
                                       solver.updates_applied());
  EXPECT_EQ(view.epoch, fresh->epoch);
  EXPECT_EQ(view.updates_applied, fresh->updates_applied);
  EXPECT_EQ(ToVectors(view.solution), ToVectors(fresh->solution));
  EXPECT_EQ(view.node_to_group, fresh->node_to_group);
  EXPECT_EQ(view.group_scores, fresh->group_scores);
  EXPECT_EQ(view.packing->group_slot, fresh->packing->group_slot);
  EXPECT_EQ(view.packing->solution_version, fresh->packing->solution_version);
  std::vector<uint32_t> live;
  solver.state().ForEachSlot([&live](uint32_t slot) { live.push_back(slot); });
  EXPECT_EQ(fresh->packing->group_slot, live);
}

TEST(BatchTest, FuzzedEpochsKeepEveryInvariant) {
  constexpr int kWorlds = 8;
  constexpr size_t kUpdatesPerWorld = 240;
  for (int world = 0; world < kWorlds; ++world) {
    SCOPED_TRACE("world=" + std::to_string(world));
    Rng rng(9100 + static_cast<uint64_t>(world) * 131);
    const NodeId n = 60 + static_cast<NodeId>(world % 4) * 15;
    const Graph initial = ErdosRenyi(n, 0.12, rng).value();
    const int k = 3 + world % 2;
    const auto ops = MakeChurnStream(initial, kUpdatesPerWorld, rng);

    DynamicOptions options;
    options.k = k;
    auto solver = DynamicSolver::Build(initial, options);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();
    EXPECT_EQ(solver->epoch(), 0u);
    EXPECT_EQ(solver->published_view()->epoch, 0u);

    const std::span<const UpdateOp> all(ops);
    uint64_t epochs = 0;
    uint64_t updates_applied = 0;
    size_t i = 0;
    while (i < all.size()) {
      // Random epoch sizes, 1..12 — including plenty of size-1 epochs.
      const size_t len = std::min<size_t>(1 + rng.NextBounded(12),
                                          all.size() - i);
      const auto epoch = all.subspan(i, len);
      ASSERT_TRUE(solver->ApplyBatch(epoch).ok());
      ++epochs;
      updates_applied += len;
      i += len;

      // Counters track the stream position exactly.
      EXPECT_EQ(solver->epoch(), epochs);
      EXPECT_EQ(solver->updates_applied(), updates_applied);

      // The per-update breakdown mirrors the epoch's ops one to one, and
      // the deduped dirty-slot count never exceeds the per-op markings.
      const BatchStats& stats = solver->last_batch_stats();
      ASSERT_EQ(stats.updates, len);
      ASSERT_EQ(stats.per_update.size(), len);
      EXPECT_EQ(stats.inserts + stats.deletes, len);
      uint64_t marked = 0;
      for (size_t j = 0; j < len; ++j) {
        EXPECT_EQ(stats.per_update[j].is_insert, epoch[j].is_insert);
        EXPECT_EQ(stats.per_update[j].edge, epoch[j].edge);
        marked += stats.per_update[j].slots_marked;
      }
      // Every boundary rebuild traces back to some op's first mark; marks
      // can exceed the rebuilt count when a marked slot dies later in the
      // epoch (its mark is deactivated, and a reused slot re-marks fresh).
      EXPECT_LE(stats.dirty_slots, marked);

      // Structural invariants and Algorithm-5 completeness after *every*
      // epoch — the deferred boundary rebuild must leave nothing stale.
      std::string error;
      ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
      ASSERT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;
      ASSERT_TRUE(
          VerifySolution(solver->graph().ToGraph(), solver->Snapshot()).ok());

      // The engine never publishes on its own; the caller's PublishView is
      // the epoch-boundary snapshot readers see.
      EXPECT_EQ(solver->published_view()->epoch, epochs - 1);
      solver->PublishView();
      const auto view = solver->published_view();
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(view->epoch, epochs);
      EXPECT_EQ(view->updates_applied, updates_applied);
      ASSERT_TRUE(view->Consistent(&error)) << error;
      EXPECT_EQ(ToVectors(view->solution), ToVectors(solver->Snapshot()));
      ExpectViewMatchesFreshBuild(*solver, *view);
    }
    EXPECT_EQ(solver->aborted_updates(), 0u);
  }
}

TEST(BatchTest, SelfCancelingPairsAreValidSequentially) {
  Rng rng(501);
  const Graph g = ErdosRenyi(40, 0.2, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());

  // An absent pair inserted then deleted, and a live edge deleted then
  // re-inserted: both valid op-by-op, with no net graph change.
  NodeId au = 0, av = 0;
  for (NodeId u = 0; u < g.num_nodes() && au == av; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!g.HasEdge(u, v)) {
        au = u;
        av = v;
        break;
      }
    }
  }
  ASSERT_NE(au, av);
  NodeId lu = 0, lv = 0;
  for (NodeId v : g.Neighbors(0)) lv = std::max(lv, v);
  ASSERT_TRUE(g.HasEdge(lu, lv));

  const auto before = ToVectors(solver->Snapshot());
  const std::vector<UpdateOp> batch = {{true, {au, av}},
                                       {false, {au, av}},
                                       {false, {lu, lv}},
                                       {true, {lu, lv}}};
  ASSERT_TRUE(solver->ValidateBatch(batch).ok());
  ASSERT_TRUE(solver->ApplyBatch(batch).ok());
  EXPECT_FALSE(solver->graph().HasEdge(au, av));
  EXPECT_TRUE(solver->graph().HasEdge(lu, lv));
  std::string error;
  ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
  ASSERT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;
  // No net structural change — the maintained solution survives untouched.
  EXPECT_EQ(ToVectors(solver->Snapshot()), before);
}

TEST(BatchTest, InvalidBatchesAreRejectedAtomically) {
  Rng rng(502);
  const Graph g = ErdosRenyi(40, 0.2, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());

  NodeId au = 0, av = 0;
  for (NodeId u = 0; u < g.num_nodes() && au == av; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!g.HasEdge(u, v)) {
        au = u;
        av = v;
        break;
      }
    }
  }
  ASSERT_NE(au, av);

  // Seed real batched state so a later rejection has stats to clobber.
  // (au, av) is live from here on.
  ASSERT_TRUE(solver->ApplyBatch(std::vector<UpdateOp>{{true, {au, av}}})
                  .ok());
  const uint64_t epochs_before = solver->epoch();
  const auto snapshot_before = ToVectors(solver->Snapshot());
  const uint64_t index_before = solver->index_size();

  // A pair still absent after the seed insert.
  NodeId bu = 0, bv = 0;
  for (NodeId u = 0; u < g.num_nodes() && bu == bv; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!solver->graph().HasEdge(u, v)) {
        bu = u;
        bv = v;
        break;
      }
    }
  }
  ASSERT_NE(bu, bv);

  struct Case {
    std::vector<UpdateOp> ops;
    const char* needle;  // expected error fragment, naming the op index
  };
  const Case cases[] = {
      // Duplicate insert of the same absent pair: op 1 sees it present.
      {{{true, {bu, bv}}, {true, {bu, bv}}}, "batch op 1"},
      // Duplicate delete: op 2 deletes what op 0 already removed.
      {{{false, {au, av}}, {true, {bu, bv}}, {false, {au, av}}},
       "batch op 2"},
      // Insert of a live edge, buried mid-batch.
      {{{true, {bu, bv}}, {true, {au, av}}}, "batch op 1"},
      // Self loop.
      {{{true, {5, 5}}}, "batch op 0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.needle);
    const Status status = solver->ApplyBatch(c.ops);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find(c.needle), std::string::npos)
        << status.ToString();
    // Atomic: nothing applied, no epoch consumed, stats reset — a caller
    // reading last_batch_stats() after an error sees zeros, not the
    // previous epoch's numbers.
    EXPECT_EQ(solver->epoch(), epochs_before);
    EXPECT_EQ(ToVectors(solver->Snapshot()), snapshot_before);
    EXPECT_EQ(solver->index_size(), index_before);
    EXPECT_EQ(solver->last_batch_stats().updates, 0u);
    EXPECT_EQ(solver->last_batch_stats().per_update.size(), 0u);
    EXPECT_EQ(solver->last_batch_stats().work, 0u);
    std::string error;
    ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
  }

  // The rejected batches must not have poisoned future epochs.
  ASSERT_TRUE(solver->ApplyBatch(std::vector<UpdateOp>{{false, {au, av}}})
                  .ok());
  EXPECT_EQ(solver->epoch(), epochs_before + 1);
}

TEST(BatchTest, EmptyBatchIsANoOp) {
  Rng rng(503);
  const Graph g = ErdosRenyi(30, 0.2, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());
  const auto view_before = solver->published_view();
  ASSERT_TRUE(solver->ApplyBatch({}).ok());
  EXPECT_EQ(solver->epoch(), 0u);
  EXPECT_EQ(solver->updates_applied(), 0u);
  // No epoch boundary, no publish: readers keep the same view object.
  EXPECT_EQ(solver->published_view(), view_before);
}

TEST(BatchTest, SharedPublishMatchesFreshBuildEveryEpoch) {
  // PublishView reuses the current packing while S and the node count are
  // unchanged. After every epoch, at batch 1 (most epochs leave S alone)
  // and batch 64 (most change it), the published view must still equal a
  // from-scratch BuildSolutionView on every field, and it must share the
  // previous packing exactly when the reuse key held. A new node id alone
  // breaks the key too.
  for (const size_t batch : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    Rng rng(505);
    const Graph g = WattsStrogatz(300, 8, 0.1, rng).value();
    DynamicOptions options;
    options.k = 3;
    auto solver = DynamicSolver::Build(g, options);
    ASSERT_TRUE(solver.ok());
    ExpectViewMatchesFreshBuild(*solver, *solver->published_view());
    const auto ops = MakeChurnStream(g, 640, rng);
    const std::span<const UpdateOp> all(ops);

    size_t shared = 0;
    size_t rebuilt = 0;
    for (size_t i = 0; i < all.size(); i += batch) {
      const auto before = solver->published_view();
      const uint64_t version = solver->state().solution_version();
      ASSERT_TRUE(
          solver->ApplyBatch(all.subspan(i, std::min(batch, all.size() - i)))
              .ok());
      solver->PublishView();
      const auto view = solver->published_view();
      ExpectViewMatchesFreshBuild(*solver, *view);
      const bool key_held =
          solver->state().solution_version() == version &&
          solver->graph().num_nodes() == before->node_to_group.size();
      EXPECT_EQ(view->packing == before->packing, key_held);
      ++(key_held ? shared : rebuilt);
    }
    // Both paths ran; at batch 1 the O(1) path is the common one.
    EXPECT_GT(rebuilt, 0u);
    if (batch == 1) {
      EXPECT_GT(shared, rebuilt);
    }

    // An insert naming a brand-new node id cannot form a k-clique (the
    // node has one neighbor), so S stays put — but node_to_group must
    // grow, so the packing is patched rather than shared.
    const auto before = solver->published_view();
    const uint64_t version = solver->state().solution_version();
    const NodeId fresh = solver->graph().num_nodes() + 5;
    ASSERT_TRUE(solver->InsertEdge(0, fresh).ok());
    solver->PublishView();
    const auto view = solver->published_view();
    EXPECT_EQ(solver->state().solution_version(), version);
    EXPECT_NE(view->packing, before->packing);
    EXPECT_EQ(view->node_to_group.size(), fresh + 1);
    EXPECT_EQ(view->GroupOf(fresh), SolutionView::kNoGroup);
    ExpectViewMatchesFreshBuild(*solver, *view);
  }
}

TEST(BatchTest, PublishedViewSurvivesLaterEpochs) {
  // The non-blocking read contract: a reader holding an old view keeps a
  // stable, consistent epoch snapshot while the writer publishes past it —
  // across a publish that shares the held packing and one that rebuilds.
  Rng rng(504);
  const Graph g = ErdosRenyi(60, 0.15, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());
  const auto ops = MakeChurnStream(g, 60, rng);
  const std::span<const UpdateOp> all(ops);

  ASSERT_TRUE(solver->ApplyBatch(all.subspan(0, 20)).ok());
  solver->PublishView();
  const auto held = solver->published_view();
  const auto held_solution = ToVectors(held->solution);
  const auto held_groups = held->node_to_group;
  const auto held_scores = held->group_scores;
  const uint64_t held_epoch = held->epoch;

  // A publish with S unchanged shares the held packing...
  solver->PublishView();
  EXPECT_EQ(solver->published_view()->packing, held->packing);
  // ...and one after S and the node count moved rebuilds it.
  ASSERT_TRUE(solver->ApplyBatch(all.subspan(20, 20)).ok());
  ASSERT_TRUE(solver->ApplyBatch(all.subspan(40, 20)).ok());
  ASSERT_TRUE(solver->InsertEdge(0, g.num_nodes()).ok());
  solver->PublishView();
  EXPECT_NE(solver->published_view()->packing, held->packing);

  // The old view is untouched by the later publishes.
  EXPECT_EQ(held->epoch, held_epoch);
  EXPECT_EQ(ToVectors(held->solution), held_solution);
  EXPECT_EQ(held->node_to_group, held_groups);
  EXPECT_EQ(held->group_scores, held_scores);
  std::string error;
  EXPECT_TRUE(held->Consistent(&error)) << error;
  // And the current view moved on.
  EXPECT_EQ(solver->published_view()->epoch, held_epoch + 3);

  // TopK is ordered by descending score, ties to the lower group id.
  const auto top = solver->published_view()->TopK(5);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_TRUE(top[i - 1].first > top[i].first ||
                (top[i - 1].first == top[i].first &&
                 top[i - 1].second < top[i].second));
  }
}

// A delete inside solution clique `slot` that its repair replaces: an edge
// of the clique that some alive candidate of the slot avoids, so the
// repair packs at least one replacement — into the slot just freed, since
// freed slots are reused last-in first-out. False if there is none.
bool FindRepairingDelete(const SolutionState& state, uint32_t slot,
                         UpdateOp* op) {
  const auto nodes = state.SlotNodes(slot);
  const auto cands = state.CandidatesOf(slot);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      for (const auto& cand : cands) {
        const auto has = [&](NodeId u) {
          return std::find(cand.nodes.begin(), cand.nodes.end(), u) !=
                 cand.nodes.end();
        };
        if (!has(nodes[i]) || !has(nodes[j])) {
          *op = UpdateOp{false, {nodes[i], nodes[j]}};
          return true;
        }
      }
    }
  }
  return false;
}

// Up to `limit` repairing deletes, each in a different solution clique.
std::vector<UpdateOp> RepairingDeletes(const SolutionState& state,
                                       size_t limit) {
  std::vector<UpdateOp> ops;
  state.ForEachSlot([&](uint32_t slot) {
    UpdateOp op;
    if (ops.size() < limit && FindRepairingDelete(state, slot, &op)) {
      ops.push_back(op);
    }
  });
  return ops;
}

StatusOr<DynamicSolver> BuildWs(uint64_t seed, DynamicOptions* options) {
  Rng rng(seed);
  const Graph g = WattsStrogatz(300, 8, 0.1, rng).value();
  options->k = 3;
  return DynamicSolver::Build(g, *options);
}

TEST(BatchTest, PatchedPublishHandlesSlotsFreedAndReusedInOneEpoch) {
  // A delete repair removes clique C and packs its replacement into C's
  // freed slot in the same epoch: the slot is touched twice, and the patch
  // must replace the slot's group, not keep the old one beside the new.
  DynamicOptions options;
  auto solver = BuildWs(601, &options);
  ASSERT_TRUE(solver.ok());
  size_t reuse_epochs = 0;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto ops = RepairingDeletes(solver->state(), 4);
    if (ops.empty()) break;
    const auto before = solver->published_view();
    ASSERT_TRUE(solver->ApplyBatch(ops).ok());
    const auto log = solver->state().solution_log();
    ASSERT_TRUE(solver->state().solution_log_intact());
    for (const uint32_t slot : log) {
      if (std::count(log.begin(), log.end(), slot) >= 2 &&
          solver->state().SlotAlive(slot)) {
        ++reuse_epochs;
        break;
      }
    }
    solver->PublishView();
    const auto view = solver->published_view();
    EXPECT_NE(view->packing, before->packing);
    ExpectViewMatchesFreshBuild(*solver, *view);
    std::string error;
    EXPECT_TRUE(view->Consistent(&error)) << error;
  }
  EXPECT_GT(reuse_epochs, 0u) << "no epoch reused a freed slot";
}

TEST(BatchTest, OverflowedLogPublishesAFullBuild) {
  // A solver that applies epochs without publishing drops its change log
  // once it would outgrow the slot table; the next publish cannot patch
  // and builds in full, after which patching resumes.
  DynamicOptions options;
  auto solver = BuildWs(602, &options);
  ASSERT_TRUE(solver.ok());
  Rng rng(6020);
  const auto ops = MakeChurnStream(solver->graph().ToGraph(), 64 * 200, rng);
  const std::span<const UpdateOp> all(ops);
  size_t i = 0;
  while (i < all.size() && solver->state().solution_log_intact()) {
    ASSERT_TRUE(solver->ApplyBatch(all.subspan(i, 64)).ok());
    i += 64;
  }
  ASSERT_FALSE(solver->state().solution_log_intact())
      << "the stream never overflowed the log";
  EXPECT_TRUE(solver->state().solution_log().empty());
  solver->PublishView();
  ExpectViewMatchesFreshBuild(*solver, *solver->published_view());
  EXPECT_TRUE(solver->state().solution_log_intact());
  for (int epoch = 0; epoch < 4 && i < all.size(); ++epoch, i += 64) {
    ASSERT_TRUE(solver->ApplyBatch(all.subspan(i, 64)).ok());
    solver->PublishView();
    ExpectViewMatchesFreshBuild(*solver, *solver->published_view());
  }
}

TEST(BatchTest, PatchedPublishGrowsNodeToGroupWhenSChanges) {
  // One epoch both changes S (repairing deletes) and names a brand-new
  // node id: the patch must lengthen node_to_group and renumber groups.
  DynamicOptions options;
  auto solver = BuildWs(603, &options);
  ASSERT_TRUE(solver.ok());
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    auto ops = RepairingDeletes(solver->state(), 3);
    ASSERT_FALSE(ops.empty());
    const NodeId n = solver->graph().num_nodes();
    ops.push_back(UpdateOp{true, {1, n + 3}});
    const uint64_t version = solver->state().solution_version();
    ASSERT_TRUE(solver->ApplyBatch(ops).ok());
    ASSERT_NE(solver->state().solution_version(), version);
    ASSERT_TRUE(solver->state().solution_log_intact());
    solver->PublishView();
    const auto view = solver->published_view();
    EXPECT_EQ(view->node_to_group.size(), n + 4);
    ExpectViewMatchesFreshBuild(*solver, *view);
  }
}

TEST(BatchTest, FirstPublishAfterFromStateIsAFullBuild) {
  // The change log is not persisted: a restored state has none, so the
  // resumed solver's first view is a full build, and later epochs patch.
  DynamicOptions options;
  auto solver = BuildWs(604, &options);
  ASSERT_TRUE(solver.ok());
  Rng rng(6040);
  const auto ops = MakeChurnStream(solver->graph().ToGraph(), 64 * 6, rng);
  const std::span<const UpdateOp> all(ops);
  ASSERT_TRUE(solver->ApplyBatch(all.subspan(0, 64)).ok());
  solver->PublishView();

  std::string graph_bytes, state_bytes;
  solver->state().SerializeGraphTo(&graph_bytes);
  solver->state().SerializeStateTo(&state_bytes);
  auto restored = SolutionState::Deserialize(graph_bytes, state_bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE((*restored)->solution_log_intact());
  auto resumed = DynamicSolver::FromState(std::move(*restored), options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectViewMatchesFreshBuild(*resumed, *resumed->published_view());
  EXPECT_EQ(ToVectors(resumed->published_view()->solution),
            ToVectors(solver->published_view()->solution));
  for (size_t i = 64; i < all.size(); i += 64) {
    ASSERT_TRUE(resumed->ApplyBatch(all.subspan(i, 64)).ok());
    resumed->PublishView();
    ExpectViewMatchesFreshBuild(*resumed, *resumed->published_view());
  }
}

TEST(BatchTest, FirstPublishAfterStoreOpenAndReopenMatchesFreshBuild) {
  // Recovery (Open, and Reopen of a sealed store) builds a new solver from
  // the snapshot and replays the WAL tail through ApplyBatch; its first
  // publish and every later patched one must equal a fresh build.
  Rng rng(605);
  const Graph g = WattsStrogatz(300, 8, 0.1, rng).value();
  const auto ops = MakeChurnStream(g, 64 * 8, rng);
  const std::span<const UpdateOp> all(ops);
  const std::string snapshot = ::testing::TempDir() + "/batch_publish.snap";
  const std::string wal = ::testing::TempDir() + "/batch_publish.wal";
  StoreOptions options;
  options.dynamic.k = 3;
  {
    auto created = DurableStore::Create(g, snapshot, wal, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    for (size_t i = 0; i < 64 * 2; i += 64) {
      ASSERT_TRUE(created->ApplyBatch(all.subspan(i, 64)).ok());
      ExpectViewMatchesFreshBuild(created->solver(),
                                  *created->solver().published_view());
    }
  }
  auto store = DurableStore::Open(snapshot, wal, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectViewMatchesFreshBuild(store->solver(),
                              *store->solver().published_view());
  size_t i = 64 * 2;
  for (; i < 64 * 4; i += 64) {
    ASSERT_TRUE(store->ApplyBatch(all.subspan(i, 64)).ok());
    ExpectViewMatchesFreshBuild(store->solver(),
                                *store->solver().published_view());
  }

  FaultRule rule;
  rule.site = FaultSite::kWalFsync;
  rule.error = ENOSPC;
  rule.fail_count = 0;  // sticky until disarmed
  FaultInjector::Instance().Arm({rule});
  const Status failed = store->ApplyBatch(all.subspan(i, 64));
  FaultInjector::Instance().Disarm();
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(store->sealed());
  ASSERT_TRUE(store->Reopen().ok());
  ExpectViewMatchesFreshBuild(store->solver(),
                              *store->solver().published_view());
  for (; i < all.size(); i += 64) {
    ASSERT_TRUE(store->ApplyBatch(all.subspan(i, 64)).ok());
    ExpectViewMatchesFreshBuild(store->solver(),
                                *store->solver().published_view());
  }
  std::remove(snapshot.c_str());
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace dkc
