#include "dynamic/candidate_index.h"

#include <algorithm>
#include <cassert>

#include "clique/kclique.h"
#include "core/clique_score.h"

namespace dkc {
namespace {

// True iff sorted `row` holds every entry of sorted `nodes` except one
// occurrence of `u`: std::includes against the other nodes without
// building them. A repeated node fails, since rows hold neither
// duplicates nor self-loops.
bool RowHoldsAllBut(std::span<const NodeId> row,
                    std::span<const NodeId> nodes, NodeId u) {
  bool skipped = false;
  auto at = row.begin();
  for (const NodeId v : nodes) {
    if (v == u && !skipped) {
      skipped = true;
      continue;
    }
    while (at != row.end() && *at < v) ++at;
    if (at == row.end() || *at != v) return false;
    ++at;
  }
  return true;
}

// A list check's per-worker scratch: the candidate indices of the list
// being checked, as a bitmap over the candidate table, so a repeat costs
// one bit test. Clear() unsets only the bits the list set.
class ListedSet {
 public:
  explicit ListedSet(size_t table_size) : bits_(table_size / 64 + 1) {}

  // Adds `idx`; false if the list already held it.
  bool Insert(uint32_t idx) {
    uint64_t& word = bits_[idx / 64];
    const uint64_t bit = uint64_t{1} << (idx % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    listed_.push_back(idx);
    return true;
  }

  // Empties the set; returns how many indices it held.
  size_t Clear() {
    for (const uint32_t idx : listed_) bits_[idx / 64] = 0;
    const size_t count = listed_.size();
    listed_.clear();
    return count;
  }

 private:
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> listed_;
};

}  // namespace

SolutionState::SolutionState(DynamicGraph graph, int k,
                             std::vector<Count> node_scores)
    : graph_(std::move(graph)), k_(k), node_scores_(std::move(node_scores)) {
  node_to_clique_.assign(graph_.num_nodes(), kNoClique);
  node_cands_.resize(graph_.num_nodes());
  node_scores_.resize(graph_.num_nodes(), 0);
}

CliqueStore SolutionState::Snapshot() const {
  CliqueStore store(k_);
  for (const auto& clique : cliques_) {
    if (clique.alive) store.Add(clique.nodes);
  }
  return store;
}

int64_t SolutionState::MemoryBytes() const {
  int64_t bytes = graph_.MemoryBytes();
  bytes += static_cast<int64_t>(node_scores_.capacity() * sizeof(Count));
  bytes += static_cast<int64_t>(node_to_clique_.capacity() * sizeof(uint32_t));
  for (const auto& c : cliques_) {
    bytes += static_cast<int64_t>(sizeof(SolClique) +
                                  c.nodes.capacity() * sizeof(NodeId) +
                                  c.cands.capacity() * sizeof(CandRef));
  }
  for (const auto& c : candidates_) {
    bytes += static_cast<int64_t>(sizeof(Candidate) +
                                  c.nodes.capacity() * sizeof(NodeId));
  }
  for (const auto& list : node_cands_) {
    bytes += static_cast<int64_t>(list.capacity() * sizeof(CandRef));
  }
  return bytes;
}

uint32_t SolutionState::AddSolutionClique(std::span<const NodeId> nodes) {
  uint32_t slot;
  if (!clique_free_slots_.empty()) {
    slot = clique_free_slots_.back();
    clique_free_slots_.pop_back();
    ++cliques_[slot].gen;  // invalidate every parked SlotRef to this slot
  } else {
    slot = static_cast<uint32_t>(cliques_.size());
    cliques_.emplace_back();
  }
  LogSolutionChange(slot);
  SolClique& clique = cliques_[slot];
  clique.nodes.assign(nodes.begin(), nodes.end());
  clique.cands.clear();
  clique.alive = true;
  for (NodeId u : nodes) {
    assert(node_to_clique_[u] == kNoClique && "node must be free");
    node_to_clique_[u] = slot;
    // Every candidate through u referenced it as a free node (a non-free
    // member would have put u in a solution clique); all are now invalid —
    // their free/non-free split changed, or they now straddle two solution
    // cliques — so they die here, *whichever clique owns them*. This kill
    // is what keeps consuming free nodes (direct adds and swap commits
    // alike) from leaving stale candidates behind in other cliques' sets.
    // The per-node list can be cleared outright: all its alive entries die,
    // and stale ones are garbage anyway.
    for (CandRef ref : node_cands_[u]) {
      if (CandValid(ref)) KillCandidate(ref.idx);
    }
    node_cand_refs_ -= node_cands_[u].size();
    node_cands_[u].clear();
  }
  ++solution_size_;
  ++solution_version_;
  MaybeCompactNodeCands();
  return slot;
}

void SolutionState::RemoveSolutionClique(uint32_t slot) {
  KillOwnedCandidates(slot);
  LogSolutionChange(slot);
  SolClique& clique = cliques_[slot];
  for (NodeId u : clique.nodes) node_to_clique_[u] = kNoClique;
  clique.alive = false;
  clique.nodes.clear();
  clique_free_slots_.push_back(slot);
  --solution_size_;
  ++solution_version_;
  MaybeCompactNodeCands();
}

void SolutionState::LogSolutionChange(uint32_t slot) {
  if (!solution_log_intact_) return;
  if (solution_log_.size() >= cliques_.size()) {
    solution_log_intact_ = false;
    solution_log_.clear();
    return;
  }
  solution_log_.push_back(slot);
}

void SolutionState::ResetSolutionLog() {
  solution_log_.clear();
  solution_log_base_ = solution_version_;
  solution_log_intact_ = true;
}

void SolutionState::KillCandidate(uint32_t idx) {
  Candidate& cand = candidates_[idx];
  assert(cand.alive);
  cand.alive = false;
  cand.nodes.clear();
  cand_free_slots_.push_back(idx);
  --alive_candidates_;
}

uint32_t SolutionState::RegisterCandidate(std::span<const NodeId> nodes,
                                          uint32_t owner) {
  uint32_t idx;
  if (!cand_free_slots_.empty()) {
    idx = cand_free_slots_.back();
    cand_free_slots_.pop_back();
    ++candidates_[idx].gen;
  } else {
    idx = static_cast<uint32_t>(candidates_.size());
    candidates_.emplace_back();
  }
  Candidate& cand = candidates_[idx];
  cand.nodes.assign(nodes.begin(), nodes.end());
  cand.score = CliqueScoreOf(nodes, node_scores_);
  cand.owner = owner;
  cand.alive = true;
  const CandRef ref{idx, cand.gen};
  cliques_[owner].cands.push_back(ref);
  for (NodeId u : nodes) node_cands_[u].push_back(ref);
  node_cand_refs_ += nodes.size();
  ++alive_candidates_;
  return idx;
}

void SolutionState::MaybeCompactNodeCands() {
  const size_t alive_refs =
      static_cast<size_t>(alive_candidates_) * static_cast<size_t>(k_);
  if (node_cand_refs_ <= 2 * alive_refs + node_cands_.size() + 64) return;
  size_t total = 0;
  for (auto& list : node_cands_) {
    size_t write = 0;
    for (const CandRef ref : list) {
      if (CandValid(ref)) list[write++] = ref;  // alive order preserved
    }
    list.resize(write);
    total += write;
  }
  node_cand_refs_ = total;
}

void SolutionState::EnumerateCandidatesFor(
    uint32_t slot, std::vector<std::vector<NodeId>>* out,
    NeighborhoodKernel* kernel, EnumBudget* budget) const {
  out->clear();
  const SolClique& clique = cliques_[slot];
  // B = C ∪ N_F(C): the clique's nodes plus their free neighbors. Any
  // candidate of C lives inside B — its free nodes are adjacent to some
  // node of C because a k-clique is fully connected and it intersects C.
  std::vector<NodeId> b(clique.nodes.begin(), clique.nodes.end());
  for (NodeId u : clique.nodes) {
    for (NodeId v : graph_.Neighbors(u)) {
      if (node_to_clique_[v] == kNoClique) b.push_back(v);
    }
  }
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());

  ForEachKCliqueInSubset(
      graph_, b, k_, [&](std::span<const NodeId> nodes) {
        int in_c = 0;
        int free_nodes = 0;
        for (NodeId u : nodes) {
          if (node_to_clique_[u] == slot) {
            ++in_c;
          } else if (node_to_clique_[u] == kNoClique) {
            ++free_nodes;
          } else {
            return true;  // touches another solution clique
          }
        }
        // in_c == k would be C itself; free == k would contradict the
        // maximality the engine maintains, but guard anyway.
        if (in_c < 1 || free_nodes < 1) return true;
        out->emplace_back(nodes.begin(), nodes.end());
        return true;
      },
      kernel, budget);
}

namespace {

// Seeds the DFS budget for one serial rebuild: the enumeration continues
// charging where the update's meter left off, against its deterministic
// work cap (never the wall clock — see update_work.h).
EnumBudget BudgetFromMeter(const UpdateWork& meter) {
  EnumBudget budget;
  budget.used = meter.work;
  budget.cap = meter.max_work;
  return budget;
}

}  // namespace

void SolutionState::KillOwnedCandidates(uint32_t slot) {
  assert(SlotAlive(slot));
  SolClique& clique = cliques_[slot];
  for (CandRef ref : clique.cands) {
    if (CandValid(ref)) KillCandidate(ref.idx);
  }
  clique.cands.clear();
  clique.incomplete = false;
}

size_t SolutionState::RebuildCandidatesFor(uint32_t slot, UpdateWork* meter) {
  KillOwnedCandidates(slot);

  std::vector<std::vector<NodeId>> found;
  if (meter != nullptr) {
    meter->Charge(1);  // the rebuild unit; DFS branches charge inside
    EnumBudget budget = BudgetFromMeter(*meter);
    EnumerateCandidatesFor(slot, &found, &subset_kernel_, &budget);
    meter->work = budget.used;
    if (budget.cut) ++meter->rebuild_cuts;
    cliques_[slot].incomplete = budget.cut;
  } else {
    EnumerateCandidatesFor(slot, &found, &subset_kernel_);
  }
  for (const auto& nodes : found) RegisterCandidate(nodes, slot);
  MaybeCompactNodeCands();
  return found.size();
}

void SolutionState::RebuildCandidatesForMany(std::span<const uint32_t> slots,
                                             std::vector<size_t>* counts,
                                             UpdateWork* meter) {
  if (counts != nullptr) counts->assign(slots.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    const size_t n = RebuildCandidatesFor(slots[i], meter);
    if (counts != nullptr) (*counts)[i] = n;
  }
}

void SolutionState::RebuildAllCandidates(ThreadPool* pool) {
  std::vector<uint32_t> slots;
  ForEachSlot([&slots](uint32_t s) { slots.push_back(s); });
  // Enumeration reads only the graph and the free/non-free map — never the
  // candidate slots — so enumerating in ParallelChunks (one kernel per
  // worker) and registering serially afterwards in slot order yields
  // exactly RebuildCandidatesForMany's candidates in exactly its
  // registration order, at any thread count.
  std::vector<std::vector<std::vector<NodeId>>> found(slots.size());
  ParallelChunks(
      pool, slots.size(), Deadline::Unlimited(),
      [] { return NeighborhoodKernel(); },
      [&](size_t, size_t begin, size_t end, NeighborhoodKernel* kernel) {
        for (size_t i = begin; i < end; ++i) {
          EnumerateCandidatesFor(slots[i], &found[i], kernel);
        }
        return true;
      },
      [](NeighborhoodKernel*) {});
  for (size_t i = 0; i < slots.size(); ++i) {
    KillOwnedCandidates(slots[i]);
    for (const auto& nodes : found[i]) RegisterCandidate(nodes, slots[i]);
  }
  MaybeCompactNodeCands();
}

size_t SolutionState::KillCandidatesWithEdge(NodeId u, NodeId v) {
  size_t killed = 0;
  auto& list = node_cands_[u];
  size_t write = 0;
  for (size_t read = 0; read < list.size(); ++read) {
    const CandRef ref = list[read];
    if (!CandValid(ref)) continue;  // compact stale entries while here
    const Candidate& cand = candidates_[ref.idx];
    if (std::find(cand.nodes.begin(), cand.nodes.end(), v) !=
        cand.nodes.end()) {
      KillCandidate(ref.idx);
      ++killed;
      continue;
    }
    list[write++] = ref;
  }
  node_cand_refs_ -= list.size() - write;
  list.resize(write);
  // The kills above went stale in every *other* member node's list; the
  // bounded compaction keeps a delete-heavy stream from accumulating them
  // without bound (the satellite-2 regression).
  MaybeCompactNodeCands();
  return killed;
}

bool SolutionState::HasCandidateWithEdge(uint32_t slot, NodeId u,
                                         NodeId v) const {
  if (!SlotAlive(slot)) return false;
  for (CandRef ref : cliques_[slot].cands) {
    if (!CandValid(ref)) continue;
    const std::vector<NodeId>& nodes = candidates_[ref.idx].nodes;
    if (std::find(nodes.begin(), nodes.end(), u) != nodes.end() &&
        std::find(nodes.begin(), nodes.end(), v) != nodes.end()) {
      return true;
    }
  }
  return false;
}

bool SolutionState::ScanFreeEdge(NodeId u, NodeId v,
                                 std::vector<NodeId>* free_clique,
                                 std::vector<uint32_t>* owners) const {
  owners->clear();
  free_clique->clear();
  if (k_ == 2) {
    free_clique->assign({u, v});
    return true;
  }
  std::vector<NodeId> common;
  IntersectSorted(graph_.Neighbors(u), graph_.Neighbors(v), &common);
  std::vector<NodeId> best;  // smallest all-free rest, ascending
  std::vector<NodeId> sorted;
  ForEachKCliqueInSubset(
      graph_, common, k_ - 2,
      [&](std::span<const NodeId> nodes) {
        uint32_t owner = kNoClique;
        for (NodeId w : nodes) {
          const uint32_t cw = node_to_clique_[w];
          if (cw == kNoClique) continue;
          if (owner != kNoClique && cw != owner) return true;  // two owners
          owner = cw;
        }
        if (owner != kNoClique) {
          owners->push_back(owner);
          return true;
        }
        sorted.assign(nodes.begin(), nodes.end());
        std::sort(sorted.begin(), sorted.end());
        if (best.empty() || sorted < best) best.swap(sorted);
        return true;
      },
      &subset_kernel_);

  std::sort(owners->begin(), owners->end());
  owners->erase(std::unique(owners->begin(), owners->end()), owners->end());
  std::erase_if(*owners, [this](uint32_t slot) { return !SlotAlive(slot); });
  if (best.empty()) return false;
  free_clique->assign({u, v});
  free_clique->insert(free_clique->end(), best.begin(), best.end());
  return true;
}

std::vector<SolutionState::CandidateView> SolutionState::CandidatesOf(
    uint32_t slot) const {
  std::vector<CandidateView> out;
  if (!SlotAlive(slot)) return out;
  for (CandRef ref : cliques_[slot].cands) {
    if (!CandValid(ref)) continue;
    const Candidate& cand = candidates_[ref.idx];
    out.push_back(CandidateView{cand.nodes, cand.score});
  }
  return out;
}

void SolutionState::EnsureNodeCapacity(NodeId n) {
  if (n > node_to_clique_.size()) {
    node_to_clique_.resize(n, kNoClique);
    node_cands_.resize(n);
    node_scores_.resize(n, 0);
  }
}

bool SolutionState::CheckInvariants(std::string* error,
                                    ThreadPool* pool) const {
  auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  // node_to_clique consistency.
  if (const char* what = FirstFailure(pool, node_to_clique_.size(), [this] {
        return [this](size_t u, uint64_t*) -> const char* {
          const uint32_t s = node_to_clique_[u];
          if (s == kNoClique) return nullptr;
          if (!SlotAlive(s)) return "node mapped to dead slot";
          const auto& nodes = cliques_[s].nodes;
          if (std::find(nodes.begin(), nodes.end(), static_cast<NodeId>(u)) ==
              nodes.end()) {
            return "node mapped to clique that does not contain it";
          }
          return nullptr;
        };
      })) {
    return fail(what);
  }
  // Solution cliques are cliques, pairwise disjoint via node_to_clique.
  uint64_t alive_slots = 0;
  if (const char* what = FirstFailure(
          pool, cliques_.size(),
          [this] {
            return [this](size_t s, uint64_t* alive) -> const char* {
              if (!cliques_[s].alive) return nullptr;
              ++*alive;
              const auto& nodes = cliques_[s].nodes;
              if (nodes.size() != static_cast<size_t>(k_)) {
                return "solution clique of wrong size";
              }
              for (size_t i = 0; i < nodes.size(); ++i) {
                if (node_to_clique_[nodes[i]] != s) {
                  return "solution clique node not mapped back";
                }
                // One row per node: HasEdge would read both rows per pair.
                const auto row = graph_.Neighbors(nodes[i]);
                for (size_t j = i + 1; j < nodes.size(); ++j) {
                  if (!std::binary_search(row.begin(), row.end(), nodes[j])) {
                    return "solution clique misses an edge";
                  }
                }
              }
              return nullptr;
            };
          },
          &alive_slots)) {
    return fail(what);
  }
  if (alive_slots != solution_size_) return fail("solution_size_ drifted");
  // Candidates: real cliques, >=1 free node, non-free nodes all in owner.
  // The owner passed the clique check above, so its pairs are edges; only
  // a free node's pairs need probing, by one merge of its sorted row
  // against the candidate's nodes, sorted once per candidate into the
  // worker's scratch. A repeated node fails that merge too (rows hold
  // neither self-loops nor duplicates).
  uint64_t alive_cands = 0;
  if (const char* what = FirstFailure(
          pool, candidates_.size(),
          [this] {
            return [this, sorted = std::vector<NodeId>()](
                       size_t i, uint64_t* alive) mutable -> const char* {
              const Candidate& cand = candidates_[i];
              if (!cand.alive) return nullptr;
              ++*alive;
              if (!SlotAlive(cand.owner)) return "candidate with dead owner";
              if (cand.nodes.size() != static_cast<size_t>(k_)) {
                return "candidate of wrong size";
              }
              sorted.assign(cand.nodes.begin(), cand.nodes.end());
              std::sort(sorted.begin(), sorted.end());
              int free_nodes = 0;
              for (const NodeId u : cand.nodes) {
                const uint32_t s = node_to_clique_[u];
                if (s != kNoClique) {
                  if (s != cand.owner) {
                    return "candidate non-free node outside owner";
                  }
                  continue;
                }
                ++free_nodes;
                if (!RowHoldsAllBut(graph_.Neighbors(u), sorted, u)) {
                  return "candidate is not a clique";
                }
              }
              if (free_nodes == 0) return "candidate without free nodes";
              if (free_nodes == k_) return "candidate with only free nodes";
              return nullptr;
            };
          },
          &alive_cands)) {
    return fail(what);
  }
  if (alive_cands != alive_candidates_) {
    return fail("alive_candidates_ drifted");
  }
  // The index's two reference lists. Valid refs only (stale ones are
  // skipped by every reader): within one list each names a distinct
  // candidate of the list's slot or node, so the totals can only fall
  // short, and they fall short iff some alive candidate is missing from
  // its owner's list or from one of its k nodes' lists.
  uint64_t owner_refs = 0;
  if (const char* what = FirstFailure(
          pool, cliques_.size(),
          [this] {
            return [this, listed = ListedSet(candidates_.size())](
                       size_t s, uint64_t* refs) mutable -> const char* {
              if (!cliques_[s].alive) return nullptr;
              for (const CandRef ref : cliques_[s].cands) {
                if (!CandValid(ref)) continue;
                if (candidates_[ref.idx].owner != s) {
                  return "owner list names a foreign candidate";
                }
                if (!listed.Insert(ref.idx)) {
                  return "owner list repeats a candidate";
                }
              }
              *refs += listed.Clear();
              return nullptr;
            };
          },
          &owner_refs)) {
    return fail(what);
  }
  if (owner_refs != alive_candidates_) {
    return fail("alive candidate missing from its owner's list");
  }
  uint64_t node_refs = 0;
  if (const char* what = FirstFailure(
          pool, node_cands_.size(),
          [this] {
            return [this, listed = ListedSet(candidates_.size())](
                       size_t u, uint64_t* refs) mutable -> const char* {
              for (const CandRef ref : node_cands_[u]) {
                if (!CandValid(ref)) continue;
                const auto& nodes = candidates_[ref.idx].nodes;
                if (std::find(nodes.begin(), nodes.end(),
                              static_cast<NodeId>(u)) == nodes.end()) {
                  return "node list names a candidate without the node";
                }
                if (!listed.Insert(ref.idx)) {
                  return "node list repeats a candidate";
                }
              }
              *refs += listed.Clear();
              return nullptr;
            };
          },
          &node_refs)) {
    return fail(what);
  }
  if (node_refs != static_cast<uint64_t>(k_) * alive_candidates_) {
    return fail("alive candidate missing from a node list");
  }
  return true;
}

bool SolutionState::CheckCandidateCompleteness(std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  auto canonical = [](std::vector<std::vector<NodeId>> cliques) {
    for (auto& c : cliques) std::sort(c.begin(), c.end());
    std::sort(cliques.begin(), cliques.end());
    return cliques;
  };
  NeighborhoodKernel kernel;
  std::vector<std::vector<NodeId>> expected;
  for (uint32_t s = 0; s < cliques_.size(); ++s) {
    if (!cliques_[s].alive) continue;
    EnumerateCandidatesFor(s, &expected, &kernel);
    std::vector<std::vector<NodeId>> indexed;
    for (const auto& view : CandidatesOf(s)) indexed.push_back(view.nodes);
    if (canonical(expected) != canonical(std::move(indexed))) {
      return fail("candidate index of slot " + std::to_string(s) +
                  " disagrees with a fresh Algorithm-5 enumeration");
    }
  }
  return true;
}

}  // namespace dkc
