// The swap operation (Algorithm 4) and the commit/propagation machinery it
// shares with the update handlers.
//
// TrySwap pops a solution clique C from a FIFO queue, greedily packs a
// maximal disjoint subset S_dis of C's candidate cliques in ascending
// clique-score order (the Algorithm-2 rule applied to the tiny candidate
// set), and commits — replace C by S_dis — iff |S_dis| >= 2, i.e. the
// solution strictly grows. Commits free leftover nodes and create fresh
// candidates, so affected cliques re-enter the queue; every commit grows
// |S| by >= 1, which bounds the loop.
//
// Budgeted maintenance: the loop optionally runs under an UpdateWork meter.
// Work units are charged deterministically (one per pop, one per candidate
// rebuild plus one per branch node the rebuild's subset-enumeration DFS
// enters), and exhaustion cuts maintenance at deterministic boundaries:
// the loop aborts at a pop boundary, and a rebuild's enumeration stops at
// a DFS branch boundary (see update_work.h). The solution and every
// indexed candidate stay valid; a cut rebuild may leave a slot's candidate
// set *incomplete* (growth opportunities missing until its next rebuild),
// which is the price of bounding a single huge neighborhood rebuild. With
// a pure work cap (no wall-clock deadline) the abort outcome is a property
// of the update stream, byte-identical at every thread count.
//
// Everything here runs serially on the caller's thread: the per-epoch
// packs, rebuilds and commits are microsecond-scale, and a pool fan-out
// over them measured slower than the serial loop (README, "Dynamic
// engine").

#ifndef DKC_DYNAMIC_SWAP_H_
#define DKC_DYNAMIC_SWAP_H_

#include <deque>
#include <vector>

#include "core/types.h"
#include "dynamic/candidate_index.h"
#include "dynamic/update_work.h"
#include "util/timer.h"

namespace dkc {

using SwapQueue = std::deque<SolutionState::SlotRef>;

struct SwapStats {
  uint64_t pops = 0;
  uint64_t commits = 0;
  uint64_t cliques_gained = 0;  // sum over commits of |S_dis| - 1
  bool aborted = false;         // an UpdateWork budget cut the loop short
};

/// Greedy maximal disjoint packing of the alive candidates of `slot`,
/// ascending clique score (deterministic: ties by registration order).
/// Returned cliques are node-vectors safe to use after the slot dies.
std::vector<std::vector<NodeId>> PackDisjointCandidates(
    const SolutionState& state, uint32_t slot);

/// Structural half of a replacement commit: remove solution clique `slot`
/// (must be alive), add the `replacement` cliques (each must consist of
/// nodes that are free once `slot` is removed), and return the slots whose
/// candidate sets are now out of date — the added cliques first, then
/// every clique adjacent to a node that ended up free, in a deterministic
/// order. The caller owns the rebuild: CommitReplacement runs it
/// immediately; the batched apply path merges these lists across a whole
/// epoch and rebuilds each dirty slot once at the boundary.
std::vector<uint32_t> StageReplacement(
    SolutionState* state, uint32_t slot,
    const std::vector<std::vector<NodeId>>& replacement);

/// Replace solution clique `slot` (must be alive) by `replacement` cliques
/// (each must consist of nodes that are free once `slot` is removed).
/// Rebuilds candidates for the added cliques and for every clique adjacent
/// to a node that ended up free, pushing the ones with candidates to
/// `queue` (when non-null) for further swapping. Rebuild work is charged
/// to `budget` when given; the commit itself is atomic — it never aborts
/// partway.
void CommitReplacement(SolutionState* state, uint32_t slot,
                       const std::vector<std::vector<NodeId>>& replacement,
                       SwapQueue* queue, UpdateWork* budget = nullptr);

/// Algorithm 4: drain the queue, swapping wherever |S_dis| >= 2. Under a
/// budget the drain aborts at a pop boundary once the meter is exhausted
/// (stats.aborted; remaining queue entries are discarded).
SwapStats TrySwapLoop(SolutionState* state, SwapQueue* queue,
                      UpdateWork* budget = nullptr);

}  // namespace dkc

#endif  // DKC_DYNAMIC_SWAP_H_
