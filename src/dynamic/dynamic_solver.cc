#include "dynamic/dynamic_solver.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clique/kclique.h"
#include "core/verify.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "util/timer.h"

namespace dkc {
namespace {

void Accumulate(SwapStats* into, const SwapStats& delta) {
  into->pops += delta.pops;
  into->commits += delta.commits;
  into->cliques_gained += delta.cliques_gained;
  into->aborted |= delta.aborted;
}

// Shared tail of both Build paths: node scores, state seeding, index build.
// `node_scores` are the seed solve's s_n counts when it ran a counting pass;
// empty ones are recounted here. Returns the state plus the index-build
// time in ms (Table VII's quantity).
std::pair<std::unique_ptr<SolutionState>, double> SeedState(
    const Graph& g, const CliqueStore& solution,
    std::vector<Count> node_scores, const DynamicOptions& options) {
  Timer timer;
  if (node_scores.empty()) {
    Dag dag(g, DegeneracyOrdering(g), options.pool);
    node_scores = ComputeNodeScores(dag, options.k, options.pool).per_node;
  }
  auto state = std::make_unique<SolutionState>(DynamicGraph(g), options.k,
                                               std::move(node_scores));
  for (CliqueId c = 0; c < solution.size(); ++c) {
    state->AddSolutionClique(solution.Get(c));
  }
  state->RebuildAllCandidates(options.pool);  // Algorithm 5
  return {std::move(state), timer.ElapsedMillis()};
}

}  // namespace

StatusOr<DynamicSolver> DynamicSolver::Build(const Graph& g,
                                             const DynamicOptions& options) {
  Timer timer;
  SolverOptions solver_options;
  solver_options.k = options.k;
  solver_options.method = options.initial_method;
  solver_options.budget = options.initial_budget;
  solver_options.pool = options.pool;
  auto initial = Solve(g, solver_options);
  if (!initial.ok()) return initial.status();
  DynamicBuildStats stats;
  stats.solve_ms = timer.ElapsedMillis();

  auto [state, index_ms] =
      SeedState(g, initial->set, std::move(initial->node_scores), options);
  stats.index_ms = index_ms;
  return DynamicSolver(std::move(state), stats, options);
}

StatusOr<DynamicSolver> DynamicSolver::BuildFromSolution(
    const Graph& g, const CliqueStore& solution,
    const DynamicOptions& options) {
  if (solution.k() != options.k) {
    return Status::InvalidArgument("solution k does not match options.k");
  }
  DKC_RETURN_IF_ERROR(VerifyDisjointCliques(g, solution));
  // Maximality is load-bearing: the candidate characterization (non-free
  // nodes of a candidate live in exactly one clique of S) presumes no
  // all-free k-clique exists.
  DKC_RETURN_IF_ERROR(VerifyMaximality(g, solution));

  DynamicBuildStats stats;
  auto [state, index_ms] = SeedState(g, solution, {}, options);
  stats.index_ms = index_ms;
  return DynamicSolver(std::move(state), stats, options);
}

StatusOr<DynamicSolver> DynamicSolver::FromState(
    std::unique_ptr<SolutionState> state, const DynamicOptions& options) {
  if (state == nullptr) {
    return Status::InvalidArgument("null engine state");
  }
  if (state->k() != options.k) {
    return Status::InvalidArgument("state k does not match options.k");
  }
  return DynamicSolver(std::move(state), DynamicBuildStats{}, options);
}

Status DynamicSolver::InsertEdge(NodeId u, NodeId v) {
  const UpdateOp op{true, {u, v}};
  return ApplyBatch(std::span<const UpdateOp>(&op, 1));
}

Status DynamicSolver::DeleteEdge(NodeId u, NodeId v) {
  const UpdateOp op{false, {u, v}};
  return ApplyBatch(std::span<const UpdateOp>(&op, 1));
}

namespace {

// Canonical 64-bit key of an undirected pair, for the batch validator's
// simulated edge delta.
uint64_t EdgeKey(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

}  // namespace

Status DynamicSolver::ValidateBatch(std::span<const UpdateOp> ops) const {
  // Simulated edge delta over the live graph: op i must be valid on the
  // graph as left by ops 0..i-1 (catches intra-batch duplicates and
  // self-canceling pairs as well as conflicts with the current graph).
  const NodeId n = state_->graph().num_nodes();
  const uint64_t growth_limit = std::max<uint64_t>(
      uint64_t{2} * n, uint64_t{n} + kNodeIdGrowthSlack);
  std::unordered_map<uint64_t, bool> delta;
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto [u, v] = ops[i].edge;
    if (u == v) {
      return Status::InvalidArgument("batch op " + std::to_string(i) +
                                     ": self loop");
    }
    if (ops[i].is_insert && std::max(u, v) >= growth_limit) {
      return Status::InvalidArgument(
          "batch op " + std::to_string(i) + ": node id " +
          std::to_string(std::max(u, v)) + " is past the growth limit " +
          std::to_string(growth_limit) + " of a " + std::to_string(n) +
          "-node graph");
    }
    const uint64_t key = EdgeKey(u, v);
    const auto it = delta.find(key);
    bool present = false;
    if (it != delta.end()) {
      present = it->second;
    } else if (u < n) {
      // Search u's list, not HasEdge's shorter one: the apply's graph
      // mutation searches u's list first, so this probe warms its cache
      // lines instead of missing on both endpoints' lists up front.
      const auto nbrs = state_->graph().Neighbors(u);
      present = std::binary_search(nbrs.begin(), nbrs.end(), v);
    }
    if (ops[i].is_insert && present) {
      return Status::InvalidArgument("batch op " + std::to_string(i) +
                                     ": edge already present");
    }
    if (!ops[i].is_insert && !present) {
      return Status::NotFound("batch op " + std::to_string(i) +
                              ": edge does not exist");
    }
    // Only a later op can read the entry, so the last op (all of a one-op
    // batch) records nothing and allocates nothing.
    if (i + 1 < ops.size()) delta[key] = ops[i].is_insert;
  }
  return Status::OK();
}

Status DynamicSolver::ApplyBatch(std::span<const UpdateOp> ops) {
  // A rejected batch did no work. The per-update buffer keeps its capacity.
  std::vector<BatchOpStats> per_update = std::move(last_batch_.per_update);
  per_update.clear();
  last_batch_ = BatchStats{};
  last_batch_.per_update = std::move(per_update);
  DKC_RETURN_IF_ERROR(ValidateBatch(ops));
  if (ops.empty()) return Status::OK();  // no epoch

  // One meter for the whole epoch: the deterministic cap scales with the
  // batch so a stream batched differently gets proportional maintenance,
  // while the abort boundaries (swap pops, rebuild DFS branches) stay
  // schedule-independent.
  Budget epoch_budget = update_budget_;
  if (epoch_budget.max_branch_nodes > 0) {
    const uint64_t cap = epoch_budget.max_branch_nodes;
    epoch_budget.max_branch_nodes =
        cap > UINT64_MAX / ops.size() ? UINT64_MAX : cap * ops.size();
  }
  UpdateWork meter = UpdateWork::FromBudget(epoch_budget);

  // --- staging: mandatory structural work per op, rebuilds deferred ----
  DirtySet& dirty = dirty_;
  dirty.Clear();
  last_batch_.per_update.reserve(ops.size());
  for (const UpdateOp& op : ops) {
    BatchOpStats ustat;
    ustat.is_insert = op.is_insert;
    ustat.edge = op.edge;
    const uint64_t work_before = meter.work;
    const auto [u, v] = op.edge;
    if (op.is_insert) {
      ++last_batch_.inserts;
      const bool inserted = state_->graph().InsertEdge(u, v);
      (void)inserted;  // ValidateBatch guarantees it
      state_->EnsureNodeCapacity(state_->graph().num_nodes());
      const uint32_t cu = state_->CliqueOf(u);
      const uint32_t cv = state_->CliqueOf(v);
      if (cu != SolutionState::kNoClique && cv != SolutionState::kNoClique) {
        // Algorithm 6's silent case — no candidate can use the edge.
      } else if (cu != SolutionState::kNoClique ||
                 cv != SolutionState::kNoClique) {
        // One endpoint free: only the non-free endpoint's clique can own
        // candidates through (u,v). Whether it gained one is answered by
        // the boundary rebuild (the probe).
        const uint32_t owner = cu != SolutionState::kNoClique ? cu : cv;
        ustat.slots_marked += dirty.MarkProbe(owner, op.edge) ? 1 : 0;
      } else {
        std::vector<NodeId> clique;
        std::vector<uint32_t> owners;
        if (state_->ScanFreeEdge(u, v, &clique, &owners)) {
          // Brand-new all-free clique: add directly. AddSolutionClique
          // kills every candidate (of any owner) that used the consumed
          // nodes as free nodes — without that kill, a later delete could
          // pack a stale candidate into the solution and break
          // disjointness (pinned by the StaleCandidate regression tests).
          // Its candidates are rebuilt at the boundary but never swapped:
          // each contains both u and v (any other combination was an
          // all-free clique of the pre-insert graph, contradicting
          // maximality), so no two of them are disjoint.
          const uint32_t slot = state_->AddSolutionClique(clique);
          ustat.direct_add = true;
          ustat.slots_marked += dirty.MarkRebuild(slot) ? 1 : 0;
        } else {
          // No all-free clique: the owners of new candidates through
          // (u,v) rebuild at the boundary (Algorithm 6, lines 12-15).
          for (const uint32_t owner : owners) {
            ustat.slots_marked += dirty.MarkWantAny(owner) ? 1 : 0;
          }
        }
      }
    } else {
      ++last_batch_.deletes;
      const bool deleted = state_->graph().DeleteEdge(u, v);
      (void)deleted;  // ValidateBatch guarantees it
      state_->KillCandidatesWithEdge(u, v);
      meter.Charge(1);
      const uint32_t cu = state_->CliqueOf(u);
      const uint32_t cv = state_->CliqueOf(v);
      if (cu != SolutionState::kNoClique && cu == cv) {
        // The edge broke solution clique C: mandatory repair. The
        // replacement's rebuilds join the epoch's dirty set.
        ustat.repaired = true;
        if (dirty.IsActive(cu) || state_->SlotIncomplete(cu)) {
          // C's indexed candidate set may miss k-cliques: earlier ops of
          // this epoch deferred its rebuild, or a work-capped rebuild (of
          // any epoch) was cut. The repair packs exactly that set, and the
          // maximality invariant rests on the packing being maximal over
          // C's *complete* candidates (a missed one goes all-free once C
          // dies and nothing ever materializes it). Settle the set now,
          // unmetered: a cut here would break maximality.
          state_->RebuildCandidatesFor(cu);
        }
        dirty.Deactivate(cu);
        const auto replacement = PackDisjointCandidates(*state_, cu);
        for (const uint32_t slot :
             StageReplacement(state_.get(), cu, replacement)) {
          ustat.slots_marked += dirty.MarkWantAny(slot) ? 1 : 0;
        }
      }
    }
    ustat.staged_work = meter.work - work_before;
    last_batch_.per_update.push_back(ustat);
  }

  // --- boundary: one deduped rebuild pass, one swap loop --------------
  std::vector<uint32_t>& slots = dirty_slots_;
  slots.clear();
  dirty.CollectActive(&slots);
  std::vector<size_t>& counts = rebuild_counts_;
  state_->RebuildCandidatesForMany(slots, &counts, &meter);

  SwapQueue& queue = swap_queue_;  // TrySwapLoop always drains it
  for (size_t i = 0; i < slots.size(); ++i) {
    if (counts[i] == 0) continue;
    const DirtySet::Mark& mark = dirty.mark(slots[i]);
    const bool enqueue =
        mark.want_any ||
        std::any_of(mark.probes.begin(), mark.probes.end(),
                    [&](const Edge& e) {
                      return state_->HasCandidateWithEdge(slots[i], e.first,
                                                          e.second);
                    });
    if (enqueue) queue.push_back(state_->RefOf(slots[i]));
  }
  const SwapStats swaps = TrySwapLoop(state_.get(), &queue, &meter);

  // --- finalize: stats and lifetime counters ---------------------------
  last_batch_.updates = ops.size();
  last_batch_.dirty_slots = slots.size();
  last_batch_.work = meter.work;
  last_batch_.rebuild_cuts = meter.rebuild_cuts;
  last_batch_.swaps = swaps;
  updates_applied_ += ops.size();
  ++epoch_;
  batch_dirty_rebuilds_ += slots.size();
  aborted_updates_ += last_batch_.aborted() ? 1 : 0;
  Accumulate(&swap_stats_, swaps);
  return Status::OK();
}

void DynamicSolver::PublishView() {
  // Share, patch or build the packing (see solution_view.h).
  const std::shared_ptr<const SolutionView> current = publisher_->Current();
  std::shared_ptr<const SolutionPacking> packing;
  if (current != nullptr &&
      current->packing->solution_version == state_->solution_version() &&
      current->node_to_group.size() == state_->graph().num_nodes()) {
    packing = current->packing;
  } else if (current != nullptr && state_->solution_log_intact() &&
             state_->solution_log_base() ==
                 current->packing->solution_version) {
    const auto log = state_->solution_log();
    std::vector<uint32_t>& touched = touched_slots_;
    touched.assign(log.begin(), log.end());
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    packing = PatchSolutionPacking(*current->packing, *state_, touched);
  } else {
    packing = BuildSolutionPacking(*state_);
  }
  state_->ResetSolutionLog();
  publisher_->Publish(std::make_shared<const SolutionView>(
      epoch_, updates_applied_, std::move(packing)));
}

}  // namespace dkc
