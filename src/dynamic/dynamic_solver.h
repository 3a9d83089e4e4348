// DynamicSolver — Section V end-to-end: builds an initial near-optimal
// disjoint k-clique set (any static method), constructs the candidate index
// (Algorithm 5), then maintains the solution under edge insertions
// (Algorithm 6) and deletions (Algorithm 7) via swap operations
// (Algorithm 4).

#ifndef DKC_DYNAMIC_DYNAMIC_SOLVER_H_
#define DKC_DYNAMIC_DYNAMIC_SOLVER_H_

#include <memory>
#include <span>
#include <vector>

#include "core/solver.h"
#include "dynamic/candidate_index.h"
#include "dynamic/dirty_set.h"
#include "dynamic/solution_view.h"
#include "dynamic/swap.h"
#include "dynamic/workload.h"
#include "util/status.h"

namespace dkc {

/// Node-id growth admission: an insert endpoint must be below
/// max(2·n, n + kNodeIdGrowthSlack), where n is the node count when the
/// ApplyBatch call starts. That allows amortised doubling (and room to
/// grow small graphs) while refusing an id that would make the graph
/// allocate billions of nodes.
inline constexpr NodeId kNodeIdGrowthSlack = 65536;

struct DynamicOptions {
  int k = 3;
  /// Static method that seeds the initial solution.
  Method initial_method = Method::kLP;
  Budget initial_budget;
  /// Per-update maintenance budget for *growth* work: time_ms is a
  /// wall-clock deadline per ApplyBatch call (consulted at swap-pop
  /// boundaries), max_branch_nodes a *deterministic* work cap (units:
  /// swap pops + candidate rebuilds + DFS branch nodes entered during
  /// rebuild enumerations). Exhaustion never corrupts the solution:
  /// the growth-chasing swap loop is cut at a pop boundary and an
  /// oversized rebuild enumeration at a DFS branch boundary (the slot is
  /// then flagged incomplete — see update_work.h), while structural
  /// repair (broken-clique replacement, candidate kills) always runs in
  /// full. The repair first rebuilds an owed or incomplete candidate set
  /// unmetered, so the solution stays maximal; the budget therefore bounds
  /// growth work, not worst-case epoch latency. Both cuts are surfaced
  /// through last_batch_stats(). With a pure work cap the abort outcome
  /// is byte-identical at every thread count. Zero fields = unlimited.
  Budget update_budget;
  /// Worker pool for Build (initial solve + index build) and, through
  /// DurableStore, for snapshot writes and loads (section CRCs, load-time
  /// validation); none of these results depends on it. ApplyBatch
  /// maintains serially: a pooled fan-out over a batch-64 epoch's ≈50
  /// microsecond-scale rebuilds measured slower than the serial loop.
  ThreadPool* pool = nullptr;
};

struct DynamicBuildStats {
  double solve_ms = 0.0;  // initial static solve
  double index_ms = 0.0;  // Algorithm 5 over the whole solution (Table VII)
};

/// Per-update slice of an ApplyBatch epoch (see BatchStats::per_update).
struct BatchOpStats {
  bool is_insert = false;
  Edge edge{0, 0};
  /// Meter units charged while staging this op (mandatory structural work:
  /// candidate kills, repair packing — rebuilds are charged at the
  /// boundary, not per update).
  uint64_t staged_work = 0;
  /// Dirty slots this op marked *first* (later ops touching the same slot
  /// mark nothing — that sharing is the rebuild dedup).
  uint32_t slots_marked = 0;
  /// Insert materialized a brand-new all-free clique directly.
  bool direct_add = false;
  /// Delete broke a solution clique; the mandatory repair ran.
  bool repaired = false;
};

/// Outcome of the most recent ApplyBatch epoch — InsertEdge/DeleteEdge are
/// one-op epochs: per-epoch aggregates (the epoch shares one deterministic
/// UpdateWork meter, scaled to the batch size) plus the per-update
/// breakdown. The Status return carries only hard argument errors; budget
/// truncation is reported here.
struct BatchStats {
  size_t updates = 0;
  size_t inserts = 0;
  size_t deletes = 0;
  /// Deduped boundary rebuilds: dirty slots rebuilt once each,
  /// however many updates in the epoch touched them. dirty_slots <
  /// slots-marked-summed-over-updates is the measurable dedup win on
  /// bursty neighborhoods.
  size_t dirty_slots = 0;
  uint64_t work = 0;  // whole-epoch meter total (see UpdateWork)
  /// Rebuild enumerations the work cap truncated mid-DFS this epoch
  /// (valid-but-incomplete candidate sets; see update_work.h).
  uint64_t rebuild_cuts = 0;
  SwapStats swaps;    // the boundary swap loop
  std::vector<BatchOpStats> per_update;

  /// True iff update_budget truncated any of this epoch's maintenance —
  /// the swap loop at a pop boundary or a rebuild mid-enumeration.
  bool aborted() const { return swaps.aborted || rebuild_cuts > 0; }
};

class DynamicSolver {
 public:
  /// Solve `g` statically, then index it. Fails if the static solve fails.
  static StatusOr<DynamicSolver> Build(const Graph& g,
                                       const DynamicOptions& options);

  /// Seed from a previously computed (e.g. persisted via io/solution_io)
  /// solution instead of re-solving. The seed must be a valid *maximal*
  /// disjoint k-clique set of `g` with the options' k — the maintenance
  /// invariants (Section V's candidate characterization) rely on
  /// maximality. Returns InvalidArgument/Corruption for malformed seeds.
  static StatusOr<DynamicSolver> BuildFromSolution(
      const Graph& g, const CliqueStore& solution,
      const DynamicOptions& options);

  /// Wrap a restored engine state (store/snapshot.h) without re-solving or
  /// re-indexing: the state already carries the solution *and* the exact
  /// candidate index, so the solver continues byte-identically to the one
  /// the state was serialized from. Lifetime stats restart at zero.
  /// InvalidArgument if options.k disagrees with the state's k.
  static StatusOr<DynamicSolver> FromState(
      std::unique_ptr<SolutionState> state, const DynamicOptions& options);

  /// The engine state (exposed for the durable store's snapshot writer).
  const SolutionState& state() const { return *state_; }

  /// Algorithm 6, as ApplyBatch of one insert. Returns InvalidArgument if
  /// the edge already exists, u == v, or an endpoint is past the growth
  /// limit (kNodeIdGrowthSlack). New node ids below it grow the graph.
  Status InsertEdge(NodeId u, NodeId v);

  /// Algorithm 7, as ApplyBatch of one delete. Returns NotFound if the
  /// edge does not exist.
  Status DeleteEdge(NodeId u, NodeId v);

  /// The engine's one update path (Algorithms 6 and 7 per op). Validates
  /// the whole batch up front (ValidateBatch) and rejects it atomically,
  /// state untouched, if any op is invalid. Otherwise every op's
  /// *mandatory* structural effect is applied in stream order (graph
  /// mutation, candidate kills through deleted edges, broken-clique
  /// repair, direct adds of brand-new all-free cliques), while candidate
  /// rebuilds are only *marked*; at the epoch boundary each dirty slot is
  /// rebuilt exactly once — the dedup win on bursty streams — followed by
  /// one swap loop. All of it runs serially on the calling thread. It does
  /// not publish: callers that serve readers call PublishView() at their
  /// own boundaries (DurableStore's Apply and ApplyBatch do, once per
  /// epoch).
  ///
  /// Determinism contract: batch boundaries are part of the stream. The
  /// epoch shares one UpdateWork meter whose deterministic cap scales to
  /// the batch (update_budget.max_branch_nodes × ops.size()) with the
  /// same schedule-independent abort boundaries, so for a fixed stream
  /// *and fixed batching* the outcome is byte-identical at any thread
  /// count. An empty batch is a no-op (no epoch).
  Status ApplyBatch(std::span<const UpdateOp> ops);

  /// The batch-level precondition check ApplyBatch runs: each op must be
  /// valid on the graph as left by the ops before it (self loops,
  /// duplicate inserts, deletes of absent edges — including intra-batch
  /// duplicates and conflicts), and no insert may name a node id past the
  /// growth limit (kNodeIdGrowthSlack). Exposed so the durable store can
  /// validate before logging. Errors name the offending op index.
  Status ValidateBatch(std::span<const UpdateOp> ops) const;

  /// Stats of the most recent successful ApplyBatch (reset to empty by an
  /// errored call — no stale per-update entries survive a rejected batch).
  const BatchStats& last_batch_stats() const { return last_batch_; }
  /// Lifetime counters since Build/FromState: updates applied, and deduped
  /// dirty-slot rebuilds at the epoch boundaries (batch_dirty_rebuilds <
  /// updates_applied on bursty streams is the dedup headline).
  uint64_t updates_applied() const { return updates_applied_; }
  uint64_t batch_dirty_rebuilds() const { return batch_dirty_rebuilds_; }

  /// Epochs applied: successful non-empty ApplyBatch calls, each
  /// InsertEdge/DeleteEdge counting as one (the build is epoch 0).
  uint64_t epoch() const { return epoch_; }
  /// The last published read snapshot — a pointer copy under a short
  /// mutex; never waits for (and is never torn by) a concurrent
  /// ApplyBatch. See solution_view.h.
  std::shared_ptr<const SolutionView> published_view() const {
    return publisher_->Current();
  }
  /// Publish the current state under the current epoch. Build/FromState
  /// publish epoch 0; after that the engine never publishes on its own —
  /// the caller serving readers decides when (DurableStore publishes after
  /// every acknowledged epoch and once after recovery replay). O(1) when
  /// S and the node count are unchanged since the current view's packing
  /// was built (the new view shares it); after S changed, it patches that
  /// packing in O(delta) plus one bulk copy (see solution_view.h).
  void PublishView();

  NodeId solution_size() const { return state_->solution_size(); }
  Count index_size() const { return state_->num_alive_candidates(); }
  const DynamicBuildStats& build_stats() const { return build_stats_; }
  const SwapStats& lifetime_swap_stats() const { return swap_stats_; }

  /// Lifetime count of epochs (one per InsertEdge/DeleteEdge) whose
  /// maintenance the budget truncated.
  uint64_t aborted_updates() const { return aborted_updates_; }
  /// Entries (alive + stale) across the index's per-node candidate lists;
  /// bounded by compaction (see SolutionState::node_cand_ref_count).
  size_t node_cand_ref_count() const {
    return state_->node_cand_ref_count();
  }

  /// Copy of the current solution, e.g. for verification.
  CliqueStore Snapshot() const { return state_->Snapshot(); }
  const DynamicGraph& graph() const { return state_->graph(); }
  int64_t MemoryBytes() const { return state_->MemoryBytes(); }

  /// Invariant check for tests.
  bool CheckInvariants(std::string* error) const {
    return state_->CheckInvariants(error);
  }

  /// Index-vs-fresh-enumeration completeness check for tests (expensive;
  /// see SolutionState::CheckCandidateCompleteness).
  bool CheckCandidateCompleteness(std::string* error) const {
    return state_->CheckCandidateCompleteness(error);
  }

 private:
  DynamicSolver(std::unique_ptr<SolutionState> state, DynamicBuildStats stats,
                const DynamicOptions& options)
      : state_(std::move(state)),
        build_stats_(stats),
        update_budget_(options.update_budget),
        publisher_(std::make_unique<SolutionPublisher>()) {
    PublishView();  // readers always have a view, epoch 0 = the build
  }

  // Finds one k-clique containing both u and v with every node free;
  // fills `clique` and returns true if found (Algorithm 6, lines 7-9).
  bool FindFreeCliqueWithEdge(NodeId u, NodeId v, std::vector<NodeId>* clique);

  // The owners of would-be candidate cliques through the new edge (u,v) —
  // the exact Algorithm-6 lines 12-15 enumeration (both endpoints free, no
  // all-free clique found), sorted, deduped, dead slots dropped. Uncharged:
  // the boundary rebuilds it feeds carry the meter.
  std::vector<uint32_t> CollectOwnersOfNewCandidates(NodeId u, NodeId v) const;

  std::unique_ptr<SolutionState> state_;  // stable address for internals
  DynamicBuildStats build_stats_;
  Budget update_budget_;
  // unique_ptr keeps the publisher's address stable across solver moves —
  // readers hold the publisher, not the solver.
  std::unique_ptr<SolutionPublisher> publisher_;
  SwapStats swap_stats_;
  BatchStats last_batch_;
  // Epoch scratch kept across calls so a one-op epoch does not allocate
  // it afresh: the dirty set (cleared over the slots it touched), the
  // boundary's slot list and rebuild counts, the swap queue, and the
  // publish's sorted change log.
  DirtySet dirty_;
  std::vector<uint32_t> dirty_slots_;
  std::vector<size_t> rebuild_counts_;
  SwapQueue swap_queue_;
  std::vector<uint32_t> touched_slots_;
  uint64_t aborted_updates_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t epoch_ = 0;
  uint64_t batch_dirty_rebuilds_ = 0;
};

}  // namespace dkc

#endif  // DKC_DYNAMIC_DYNAMIC_SOLVER_H_
