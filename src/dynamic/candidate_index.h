// Shared mutable state of the dynamic engine (Section V): the current
// solution S, the free/non-free status of every node, and the candidate
// k-clique index of Algorithm 5.
//
// Invariants maintained at every public-call boundary:
//  * a node is *free* iff it belongs to no clique of S;
//  * every alive candidate is a real k-clique of the current graph with at
//    least one free node and at least one non-free node, and all of its
//    non-free nodes belong to the single solution clique that owns it
//    (the paper's Section V-A characterization);
//  * a candidate is indexed under its owner and under each of its nodes
//    (the per-node index serves edge-deletion and node-consumption kills).
//
// Slots for solution cliques and candidates are generation-tagged so stale
// references parked in queues or per-node lists can never alias a reused
// slot.

#ifndef DKC_DYNAMIC_CANDIDATE_INDEX_H_
#define DKC_DYNAMIC_CANDIDATE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clique/clique_store.h"
#include "clique/neighborhood.h"
#include "dynamic/update_work.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dkc {

class SolutionState {
 public:
  static constexpr uint32_t kNoClique = UINT32_MAX;

  /// Generation-tagged reference to a solution-clique slot.
  struct SlotRef {
    uint32_t slot = 0;
    uint32_t gen = 0;
  };

  /// Takes over the graph; `node_scores` are the static Definition-5 scores
  /// used to order candidates inside swaps (kept fixed between rebuilds, an
  /// efficiency choice: refreshing them would rescore every candidate).
  SolutionState(DynamicGraph graph, int k, std::vector<Count> node_scores);

  // --- queries -------------------------------------------------------
  int k() const { return k_; }
  DynamicGraph& graph() { return graph_; }
  const DynamicGraph& graph() const { return graph_; }
  bool IsFree(NodeId u) const { return node_to_clique_[u] == kNoClique; }
  uint32_t CliqueOf(NodeId u) const { return node_to_clique_[u]; }
  NodeId solution_size() const { return solution_size_; }
  Count num_alive_candidates() const { return alive_candidates_; }
  const std::vector<Count>& node_scores() const { return node_scores_; }
  /// Bumped by every AddSolutionClique/RemoveSolutionClique — the only
  /// mutators of S — so an unchanged version means an unchanged S
  /// (slot numbering included). Not persisted: a restored state restarts
  /// at 0.
  uint64_t solution_version() const { return solution_version_; }

  /// The change log behind DynamicSolver::PublishView's patch: every slot
  /// passed to AddSolutionClique/RemoveSolutionClique since the last
  /// ResetSolutionLog (at solution_log_base()), in call order. Usable only
  /// while solution_log_intact(): it is dropped once it would outgrow the
  /// slot table, and a restored state has none (it is not persisted).
  std::span<const uint32_t> solution_log() const { return solution_log_; }
  bool solution_log_intact() const { return solution_log_intact_; }
  uint64_t solution_log_base() const { return solution_log_base_; }
  /// Start an empty, intact log at the current solution_version().
  void ResetSolutionLog();

  bool SlotAlive(uint32_t slot) const {
    return slot < cliques_.size() && cliques_[slot].alive;
  }
  bool RefValid(SlotRef ref) const {
    return SlotAlive(ref.slot) && cliques_[ref.slot].gen == ref.gen;
  }
  SlotRef RefOf(uint32_t slot) const {
    return SlotRef{slot, cliques_[slot].gen};
  }
  std::span<const NodeId> SlotNodes(uint32_t slot) const {
    return {cliques_[slot].nodes.data(), cliques_[slot].nodes.size()};
  }
  /// True iff the slot's last rebuild was cut by the work cap, so its
  /// candidate set may miss k-cliques until an unmetered rebuild.
  bool SlotIncomplete(uint32_t slot) const {
    return cliques_[slot].incomplete;
  }

  /// Copy of the current S.
  CliqueStore Snapshot() const;

  /// Approximate bytes held by the index structures (Table VII companion).
  int64_t MemoryBytes() const;

  // --- solution mutation ---------------------------------------------
  /// Adds a clique whose nodes are all currently free. Marks them non-free
  /// and kills every candidate that used them. Returns the slot.
  uint32_t AddSolutionClique(std::span<const NodeId> nodes);

  /// Removes a clique: its nodes become free, its candidates die.
  void RemoveSolutionClique(uint32_t slot);

  // --- candidate index -----------------------------------------------
  /// Algorithm 5 for one clique: drop its current candidates and
  /// re-enumerate the k-cliques on B = C ∪ N_F(C), registering the valid
  /// ones. Returns the number of alive candidates afterwards.
  ///
  /// With `meter`, the rebuild charges one unit plus one per branch node
  /// the subset-enumeration DFS enters, and the enumeration is truncated
  /// at a DFS branch boundary once the deterministic work cap is spent
  /// (meter->rebuild_cuts records it). A cut rebuild registers only the
  /// candidates found before the cut: each is valid, but the slot's set
  /// may be incomplete until its next rebuild — the documented trade for
  /// bounding a single huge neighborhood rebuild (see update_work.h). The
  /// slot remembers the cut (SlotIncomplete) until a rebuild completes.
  size_t RebuildCandidatesFor(uint32_t slot, UpdateWork* meter = nullptr);

  /// RebuildCandidatesFor on each of `slots` (each alive, no duplicates)
  /// in order, all charging `meter`. Fills `counts` (when non-null) with
  /// the per-slot candidate counts.
  void RebuildCandidatesForMany(std::span<const uint32_t> slots,
                                std::vector<size_t>* counts,
                                UpdateWork* meter = nullptr);

  /// Algorithm 5 for the whole solution (never budgeted: the initial index
  /// build must be complete). Enumeration runs on ParallelChunks (across
  /// `pool`'s workers when given) and registration stays serial in slot
  /// order, so the index is byte-identical to RebuildCandidatesForMany over
  /// every slot, at any thread count.
  void RebuildAllCandidates(ThreadPool* pool = nullptr);

  /// Kill every candidate whose clique uses edge (u, v) — edge-deletion
  /// maintenance. Returns how many died.
  size_t KillCandidatesWithEdge(NodeId u, NodeId v);

  /// True iff some alive candidate of `slot` contains both `u` and `v` —
  /// the new-edge probe of an insert with one free endpoint, answered by
  /// walking the slot's candidates in place.
  bool HasCandidateWithEdge(uint32_t slot, NodeId u, NodeId v) const;

  /// Copies the alive candidates of `slot` as (nodes, score) pairs.
  struct CandidateView {
    std::vector<NodeId> nodes;
    Count score = 0;
  };
  std::vector<CandidateView> CandidatesOf(uint32_t slot) const;

  /// Iterate alive solution slots.
  template <typename F>
  void ForEachSlot(F&& f) const {
    for (uint32_t s = 0; s < cliques_.size(); ++s) {
      if (cliques_[s].alive) f(s);
    }
  }

  /// Grow per-node structures after the graph gained nodes.
  void EnsureNodeCapacity(NodeId n);

  /// Entries across all per-node candidate lists, alive and stale. Stale
  /// refs are compacted whenever they outnumber a linear bound (see
  /// MaybeCompactNodeCands), so this stays O(alive index size + n) over
  /// arbitrarily long update streams — the memory-growth regression tests
  /// pin that bound.
  size_t node_cand_ref_count() const { return node_cand_refs_; }

  // --- persistence (store/snapshot.h) --------------------------------
  /// Appends the graph adjacency as a CSR blob (its own versioned layout;
  /// integrity/CRC framing is the snapshot writer's job).
  void SerializeGraphTo(std::string* out) const;

  /// Appends everything else the engine's future behavior depends on:
  /// scores, solution slots with generation tags, the candidate arena in
  /// registration order, both free-slot stacks, and the per-node candidate
  /// lists *including stale refs*. Verbatim capture is the point — slot
  /// reuse order, candidate registration indices, and compaction timing
  /// all feed downstream tie-breaks, so a restored state continues
  /// byte-identically to the state it was serialized from.
  void SerializeStateTo(std::string* out) const;

  /// Bytes SerializeGraphTo plus SerializeStateTo append, computed without
  /// encoding (O(n + slots + candidates)), so a writer can size its buffer
  /// once.
  size_t SerializedBytes() const;

  /// Rebuilds a state from the two blobs. Bounds-checks every read,
  /// cross-validates the derived counters, and runs CheckInvariants;
  /// returns Corruption on any mismatch (the caller has already verified
  /// checksums, so a failure here means a logic bug or a forged file).
  /// With `pool`, the per-candidate, per-slot and per-node range checks
  /// and CheckInvariants run across its workers, with the serial result.
  static StatusOr<std::unique_ptr<SolutionState>> Deserialize(
      std::string_view graph_bytes, std::string_view state_bytes,
      ThreadPool* pool = nullptr);

  /// Exhaustive invariant check (tests and snapshot load), in this order:
  /// the node map; solution cliques (size k, mapped back, all pairs
  /// edges); candidates (Section V-A: size k, a clique, alive owner, some
  /// but not all nodes free, non-free nodes in the owner); then the two
  /// reference lists of the index. Every valid ref in an alive slot's list
  /// names a candidate that slot owns, and every valid ref in node u's
  /// list a candidate containing u, none twice in one list; the valid refs
  /// total alive_candidates_ and k times that. So each alive candidate is
  /// listed once by its owner and once under each of its nodes.
  ///
  /// A candidate's owner-owner pairs are taken as proven by its owner's
  /// clique check; each free node is checked by one merge of its row
  /// against the candidate's nodes, sorted once, which also refuses a
  /// repeated node. Each loop runs on FirstFailure (across `pool`'s
  /// workers when given), so a refusal reports exactly the serial pass's
  /// message at any thread count.
  bool CheckInvariants(std::string* error, ThreadPool* pool = nullptr) const;

  /// Completeness check (tests only, much more expensive than
  /// CheckInvariants): re-enumerates every alive clique's candidate set
  /// from scratch and compares it against the maintained index. Catches
  /// update paths that forget to register — or to kill — a candidate,
  /// which CheckInvariants (validity of what *is* indexed) cannot see.
  bool CheckCandidateCompleteness(std::string* error) const;

 private:
  struct CandRef {
    uint32_t idx = 0;
    uint32_t gen = 0;
  };
  struct Candidate {
    std::vector<NodeId> nodes;
    Count score = 0;
    uint32_t owner = kNoClique;
    uint32_t gen = 0;
    bool alive = false;
  };
  struct SolClique {
    std::vector<NodeId> nodes;
    std::vector<CandRef> cands;
    uint32_t gen = 0;
    bool alive = false;
    // See SlotIncomplete. Removal clears it (KillOwnedCandidates), so a
    // reused slot starts complete.
    bool incomplete = false;
  };

  bool CandValid(CandRef ref) const {
    return ref.idx < candidates_.size() && candidates_[ref.idx].alive &&
           candidates_[ref.idx].gen == ref.gen;
  }
  void KillCandidate(uint32_t idx);
  // Kills every alive candidate of `slot`, clears its cands list and its
  // incomplete flag — the shared first half of a rebuild (the per-slot and
  // whole-solution rebuilds must stay identical, so there is exactly one
  // implementation).
  void KillOwnedCandidates(uint32_t slot);
  // Appends `slot` to the change log, or drops the log once it would
  // outgrow the slot table (see solution_log()).
  void LogSolutionChange(uint32_t slot);
  uint32_t RegisterCandidate(std::span<const NodeId> nodes, uint32_t owner);
  // Drops dead refs from every per-node list once they outnumber
  // 2 * alive refs + n + 64 — each compaction removes more entries than it
  // keeps stale, so list walking stays amortized O(1) per registered ref
  // while alive refs are never reordered (observable behavior unchanged).
  // Called at the end of the public mutators (never mid-iteration).
  void MaybeCompactNodeCands();
  // Enumerates valid candidates for `slot` into `out` without mutating the
  // index, driving the subset DFS through `kernel` (callers on the serial
  // per-update path pass `&subset_kernel_`; the whole-solution rebuild
  // passes worker-private kernels). `budget`, when non-null,
  // charges/truncates the DFS (see EnumBudget).
  void EnumerateCandidatesFor(uint32_t slot,
                              std::vector<std::vector<NodeId>>* out,
                              NeighborhoodKernel* kernel,
                              EnumBudget* budget = nullptr) const;

  DynamicGraph graph_;
  int k_;
  std::vector<Count> node_scores_;

  // Persistent subset-enumeration kernel: every dynamic update runs
  // Algorithm 5 on a tiny subset B, and reusing one kernel (arena) across
  // updates makes those enumerations allocation-free in steady state.
  mutable NeighborhoodKernel subset_kernel_;

  std::vector<SolClique> cliques_;
  std::vector<uint32_t> clique_free_slots_;
  std::vector<uint32_t> node_to_clique_;
  NodeId solution_size_ = 0;
  uint64_t solution_version_ = 0;
  std::vector<uint32_t> solution_log_;
  uint64_t solution_log_base_ = 0;
  bool solution_log_intact_ = true;

  std::vector<Candidate> candidates_;
  std::vector<uint32_t> cand_free_slots_;
  std::vector<std::vector<CandRef>> node_cands_;
  size_t node_cand_refs_ = 0;  // total entries across node_cands_ lists
  Count alive_candidates_ = 0;
};

}  // namespace dkc

#endif  // DKC_DYNAMIC_CANDIDATE_INDEX_H_
