// Non-blocking read snapshots of the dynamic solution.
//
// Every epoch boundary the caller chooses publishes an immutable
// SolutionView by swapping one shared_ptr; readers keep whatever view
// they grabbed alive for as long as they hold the pointer. Readers — `dkc
// serve` queries, top-k scores — therefore never wait for an epoch's
// maintenance or publish (only for another thread's pointer copy) and
// never observe a half-applied epoch: a view is always the exact solution
// at some epoch boundary of the update stream.
//
// A view is two parts: a per-epoch header (epoch, updates applied) and a
// shared, immutable SolutionPacking (S densely numbered in engine-slot
// order, the group per node, the score per group). DynamicSolver::
// PublishView gets each packing one of three ways:
//  * share, O(1): most churn epochs leave S untouched, so the next view
//    takes the current packing while its reuse key holds — the state's
//    solution_version() (bumped by every add or removal of a solution
//    clique) and the node count. Node scores are fixed per node (new
//    nodes join with score 0), so the key determines the packing.
//  * patch, O(delta) plus one bulk copy: S changed and the state's change
//    log of touched slots is intact (PatchSolutionPacking).
//  * build, O(n + |S|·k): no usable previous packing (a solver's first
//    publish, an overflowed log) — the same patch from an empty packing
//    with every live slot touched.

#ifndef DKC_DYNAMIC_SOLUTION_VIEW_H_
#define DKC_DYNAMIC_SOLUTION_VIEW_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "clique/clique_store.h"
#include "graph/graph.h"

namespace dkc {

class SolutionState;

/// The readable packing at some epoch boundary; immutable once built and
/// shared by every view published while its reuse key holds.
struct SolutionPacking {
  /// The solution, densely numbered 0..size()-1.
  CliqueStore solution;
  /// Group id per node (SolutionView::kNoGroup for free nodes); indexed
  /// by NodeId, one entry per node of the graph it was built from.
  std::vector<uint32_t> node_to_group;
  /// Definition-6 clique score per group, aligned with `solution` ids.
  std::vector<Count> group_scores;
  /// Engine slot of each group, ascending: groups follow slot order, as
  /// SolutionState::Snapshot() does. The patch merges against it.
  std::vector<uint32_t> group_slot;
  /// SolutionState::solution_version() at build time (the reuse key,
  /// together with node_to_group.size()).
  uint64_t solution_version = 0;

  explicit SolutionPacking(int k) : solution(k) {}
};

/// The packing of `state`, made from `prev` — a packing of the same state
/// at an earlier solution_version() — and `touched`: the sorted, unique
/// slots added to or removed from S since then (a superset is fine). Runs
/// of untouched groups are bulk-copied, only touched live slots are read
/// and scored, and node_to_group is copied from `prev` and rewritten only
/// from the first group whose id shifted.
std::shared_ptr<const SolutionPacking> PatchSolutionPacking(
    const SolutionPacking& prev, const SolutionState& state,
    std::span<const uint32_t> touched);

/// Materialize the current solution of `state` as a packing: the patch
/// from an empty packing with every live slot touched.
std::shared_ptr<const SolutionPacking> BuildSolutionPacking(
    const SolutionState& state);

struct SolutionView {
  static constexpr uint32_t kNoGroup = UINT32_MAX;

  /// Epoch boundary this view was published at (0 = the initial solve,
  /// before any update).
  uint64_t epoch = 0;
  /// Updates applied through that boundary.
  uint64_t updates_applied = 0;

  /// The packing, possibly shared with views of earlier epochs; the
  /// references below point into it, so it is never reseated.
  const std::shared_ptr<const SolutionPacking> packing;
  const CliqueStore& solution;
  const std::vector<uint32_t>& node_to_group;
  const std::vector<Count>& group_scores;

  SolutionView(uint64_t at_epoch, uint64_t applied,
               std::shared_ptr<const SolutionPacking> shared)
      : epoch(at_epoch),
        updates_applied(applied),
        packing(std::move(shared)),
        solution(packing->solution),
        node_to_group(packing->node_to_group),
        group_scores(packing->group_scores) {}

  /// The group containing `u`, or kNoGroup (out-of-range ids are free:
  /// the caller may hold a view older than the node's creation).
  uint32_t GroupOf(NodeId u) const {
    return u < node_to_group.size() ? node_to_group[u] : kNoGroup;
  }
  std::span<const NodeId> GroupMembers(uint32_t group) const {
    return solution.Get(group);
  }

  /// Top `n` groups by descending score (ties: lower group id first).
  std::vector<std::pair<Count, uint32_t>> TopK(size_t n) const;

  /// Internal cross-consistency (tests): node_to_group matches the store,
  /// scores array is aligned, every clique has k distinct in-range nodes.
  bool Consistent(std::string* error) const;
};

/// A view of the current solution of `state` over a freshly built
/// packing (never shared or patched — DynamicSolver::PublishView does
/// both).
std::shared_ptr<const SolutionView> BuildSolutionView(
    const SolutionState& state, uint64_t epoch, uint64_t updates_applied);

/// The publication point. Writers Publish at epoch boundaries; readers
/// Current() from any thread (the shared_ptr keeps a grabbed view alive
/// across later publishes). The mutex is held only for the pointer copy
/// or swap, never while a view is built or destroyed. It stands in for
/// std::atomic<std::shared_ptr>, whose libstdc++ 12 load unlocks with a
/// relaxed store that ThreadSanitizer reports as a race.
class SolutionPublisher {
 public:
  std::shared_ptr<const SolutionView> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return view_;
  }
  void Publish(std::shared_ptr<const SolutionView> view) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      view_.swap(view);
    }
    // `view` now holds the previous view; it is released unlocked.
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const SolutionView> view_;
};

}  // namespace dkc

#endif  // DKC_DYNAMIC_SOLUTION_VIEW_H_
