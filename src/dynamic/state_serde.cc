// SolutionState (de)serialization — the engine half of the durable store.
//
// The encoding is deliberately verbatim: every member whose value can feed
// a future tie-break (candidate registration indices, generation tags,
// free-slot stack order, stale per-node refs that gate compaction timing)
// is written exactly as it sits in memory. That is what turns "load
// snapshot + replay WAL" into a byte-identical continuation of the
// never-crashed run instead of a merely-equivalent one. The only skipped
// member is the subset-enumeration kernel, which is scratch: enumeration
// results never depend on its arena contents.

#include <algorithm>

#include "dynamic/candidate_index.h"
#include "util/binio.h"

namespace dkc {
namespace {

constexpr uint32_t kGraphBlobVersion = 1;
constexpr uint32_t kStateBlobVersion = 1;

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("engine state blob: ") + what);
}

}  // namespace

void SolutionState::SerializeGraphTo(std::string* out) const {
  PutU32(out, kGraphBlobVersion);
  const NodeId n = graph_.num_nodes();
  PutU64(out, n);
  PutU64(out, 2 * graph_.num_edges());  // total adjacency entries
  uint64_t offset = 0;
  for (NodeId u = 0; u < n; ++u) {
    PutU64(out, offset);
    offset += graph_.Neighbors(u).size();
  }
  PutU64(out, offset);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : graph_.Neighbors(u)) PutU32(out, v);
  }
}

void SolutionState::SerializeStateTo(std::string* out) const {
  PutU32(out, kStateBlobVersion);
  PutU32(out, static_cast<uint32_t>(k_));
  const NodeId n = graph_.num_nodes();
  PutU64(out, n);

  for (NodeId u = 0; u < n; ++u) PutU64(out, node_scores_[u]);
  for (NodeId u = 0; u < n; ++u) PutU32(out, node_to_clique_[u]);

  PutU64(out, cliques_.size());
  for (const SolClique& clique : cliques_) {
    // Bit 0 = alive, bit 1 = incomplete (see SlotIncomplete).
    PutU8(out, (clique.alive ? 1 : 0) | (clique.incomplete ? 2 : 0));
    PutU32(out, clique.gen);
    PutU32(out, static_cast<uint32_t>(clique.nodes.size()));
    for (NodeId u : clique.nodes) PutU32(out, u);
    PutU64(out, clique.cands.size());
    for (const CandRef ref : clique.cands) {
      PutU32(out, ref.idx);
      PutU32(out, ref.gen);
    }
  }
  PutU64(out, clique_free_slots_.size());
  for (uint32_t slot : clique_free_slots_) PutU32(out, slot);

  PutU64(out, candidates_.size());
  for (const Candidate& cand : candidates_) {
    PutU8(out, cand.alive ? 1 : 0);
    PutU32(out, cand.gen);
    PutU32(out, cand.owner);
    PutU64(out, cand.score);
    PutU32(out, static_cast<uint32_t>(cand.nodes.size()));
    for (NodeId u : cand.nodes) PutU32(out, u);
  }
  PutU64(out, cand_free_slots_.size());
  for (uint32_t idx : cand_free_slots_) PutU32(out, idx);

  for (NodeId u = 0; u < n; ++u) {
    PutU64(out, node_cands_[u].size());
    for (const CandRef ref : node_cands_[u]) {
      PutU32(out, ref.idx);
      PutU32(out, ref.gen);
    }
  }

  // Derived counters, stored for cross-validation on load.
  PutU64(out, solution_size_);
  PutU64(out, alive_candidates_);
  PutU64(out, node_cand_refs_);
}

size_t SolutionState::SerializedBytes() const {
  const size_t n = graph_.num_nodes();
  const size_t m = graph_.num_edges();
  // Graph blob: version, n, entry count, n + 1 offsets, 2m neighbors.
  size_t bytes = 4 + 8 + 8 + 8 * (n + 1) + 4 * 2 * m;
  // State blob, field by field in SerializeStateTo's order.
  bytes += 4 + 4 + 8 + 8 * n + 4 * n;  // version, k, n, scores, owners
  bytes += 8;
  for (const SolClique& clique : cliques_) {
    bytes += 1 + 4 + 4 + 4 * clique.nodes.size() + 8 + 8 * clique.cands.size();
  }
  bytes += 8 + 4 * clique_free_slots_.size();
  bytes += 8;
  for (const Candidate& cand : candidates_) {
    bytes += 1 + 4 + 4 + 8 + 4 + 4 * cand.nodes.size();
  }
  bytes += 8 + 4 * cand_free_slots_.size();
  for (NodeId u = 0; u < n; ++u) bytes += 8 + 8 * node_cands_[u].size();
  return bytes + 3 * 8;  // derived counters
}

StatusOr<std::unique_ptr<SolutionState>> SolutionState::Deserialize(
    std::string_view graph_bytes, std::string_view state_bytes) {
  // --- graph blob: validated CSR -> DynamicGraph ---------------------
  ByteReader gr(graph_bytes);
  if (gr.U32() != kGraphBlobVersion) {
    return Corrupt("unknown graph blob version");
  }
  const uint64_t n64 = gr.U64();
  const uint64_t entries = gr.U64();
  if (n64 > UINT32_MAX - 1 || entries % 2 != 0) {
    return Corrupt("implausible graph dimensions");
  }
  const NodeId n = static_cast<NodeId>(n64);
  std::vector<Count> offsets(static_cast<size_t>(n) + 1);
  for (auto& o : offsets) o = gr.U64();
  if (gr.failed()) return Corrupt("truncated graph offsets");
  if (offsets.front() != 0 || offsets.back() != entries ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    return Corrupt("non-monotone CSR offsets");
  }
  std::vector<NodeId> neighbors(entries);
  for (auto& v : neighbors) v = gr.U32();
  if (!gr.AtEnd()) return Corrupt("graph blob size mismatch");
  // Rows are validated and the CSR checked for symmetry in one O(m) pass,
  // with no per-edge search. cursor[v] walks row v's entries below v, one
  // step per row u < v that lists v (rows run in ascending u), so row u's
  // entry v > u must be row v's next unmatched entry, and once row u is
  // done its cursor must sit on its first entry above u. A cursor pushed
  // past that point fails the second check, so bounding it by `entries`
  // alone keeps every read in range.
  std::vector<Count> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    const Count begin = offsets[u];
    const Count end = offsets[u + 1];
    Count i = begin;
    for (; i < end && neighbors[i] < u; ++i) {
      if (i > begin && neighbors[i] <= neighbors[i - 1]) {
        return Corrupt("adjacency row not sorted/unique");
      }
    }
    const Count first_above = i;
    for (; i < end; ++i) {
      const NodeId v = neighbors[i];
      if (v >= n || v == u) return Corrupt("neighbor id out of range");
      if (i > begin && v <= neighbors[i - 1]) {
        return Corrupt("adjacency row not sorted/unique");
      }
      if (cursor[v] == entries || neighbors[cursor[v]] != u) {
        return Corrupt("adjacency not symmetric");
      }
      ++cursor[v];
    }
    if (cursor[u] != first_above) return Corrupt("adjacency not symmetric");
  }
  Graph csr(std::move(offsets), std::move(neighbors));

  // --- state blob ----------------------------------------------------
  ByteReader sr(state_bytes);
  if (sr.U32() != kStateBlobVersion) {
    return Corrupt("unknown state blob version");
  }
  const uint32_t k = sr.U32();
  if (k < 2 || k > 64) return Corrupt("implausible k");
  if (sr.U64() != n) return Corrupt("graph/state node count mismatch");

  std::vector<Count> scores(n);
  for (auto& s : scores) s = sr.U64();
  auto state = std::make_unique<SolutionState>(DynamicGraph(csr),
                                               static_cast<int>(k),
                                               std::move(scores));
  for (NodeId u = 0; u < n; ++u) state->node_to_clique_[u] = sr.U32();

  const uint64_t num_cliques = sr.U64();
  if (num_cliques > sr.remaining()) return Corrupt("truncated clique table");
  state->cliques_.resize(static_cast<size_t>(num_cliques));
  for (SolClique& clique : state->cliques_) {
    const uint8_t flags = sr.U8();
    if (flags > 3) return Corrupt("unknown solution slot flags");
    clique.alive = (flags & 1) != 0;
    clique.incomplete = (flags & 2) != 0;
    if (clique.incomplete && !clique.alive) {
      return Corrupt("incomplete flag on a dead solution slot");
    }
    clique.gen = sr.U32();
    const uint32_t num_nodes = sr.U32();
    if (num_nodes > k) return Corrupt("oversized solution clique");
    clique.nodes.resize(num_nodes);
    for (auto& u : clique.nodes) u = sr.U32();
    const uint64_t num_refs = sr.U64();
    if (num_refs > sr.remaining()) return Corrupt("truncated cand-ref list");
    clique.cands.resize(static_cast<size_t>(num_refs));
    for (auto& ref : clique.cands) {
      ref.idx = sr.U32();
      ref.gen = sr.U32();
    }
  }
  const uint64_t num_free_cliques = sr.U64();
  if (num_free_cliques > num_cliques) return Corrupt("free-slot overflow");
  state->clique_free_slots_.resize(static_cast<size_t>(num_free_cliques));
  for (auto& slot : state->clique_free_slots_) slot = sr.U32();

  const uint64_t num_cands = sr.U64();
  if (num_cands > sr.remaining()) return Corrupt("truncated candidate table");
  state->candidates_.resize(static_cast<size_t>(num_cands));
  for (Candidate& cand : state->candidates_) {
    cand.alive = sr.U8() != 0;
    cand.gen = sr.U32();
    cand.owner = sr.U32();
    cand.score = sr.U64();
    const uint32_t num_nodes = sr.U32();
    if (num_nodes > k) return Corrupt("oversized candidate");
    cand.nodes.resize(num_nodes);
    for (auto& u : cand.nodes) u = sr.U32();
  }
  const uint64_t num_free_cands = sr.U64();
  if (num_free_cands > num_cands) return Corrupt("free-slot overflow");
  state->cand_free_slots_.resize(static_cast<size_t>(num_free_cands));
  for (auto& idx : state->cand_free_slots_) idx = sr.U32();

  for (NodeId u = 0; u < n; ++u) {
    const uint64_t num_refs = sr.U64();
    if (num_refs > sr.remaining()) return Corrupt("truncated node-cand list");
    state->node_cands_[u].resize(static_cast<size_t>(num_refs));
    for (auto& ref : state->node_cands_[u]) {
      ref.idx = sr.U32();
      ref.gen = sr.U32();
    }
  }

  const uint64_t stored_solution_size = sr.U64();
  const uint64_t stored_alive_cands = sr.U64();
  const uint64_t stored_node_refs = sr.U64();
  if (!sr.AtEnd()) return Corrupt("state blob size mismatch");

  // --- cross-validation ---------------------------------------------
  // Free-slot stacks must enumerate exactly the dead table entries (any
  // drift would desynchronize slot reuse — and therefore tie-breaks —
  // from the serialized run).
  auto check_free_list = [](const std::vector<uint32_t>& list, size_t size,
                            auto&& dead) {
    size_t dead_count = 0;
    for (size_t i = 0; i < size; ++i) dead_count += dead(i) ? 1 : 0;
    if (list.size() != dead_count) return false;
    std::vector<uint32_t> sorted = list;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (sorted[i] >= size || !dead(sorted[i])) return false;
      if (i > 0 && sorted[i] == sorted[i - 1]) return false;
    }
    return true;
  };
  if (!check_free_list(state->clique_free_slots_, state->cliques_.size(),
                       [&](size_t i) { return !state->cliques_[i].alive; })) {
    return Corrupt("clique free-slot stack disagrees with table");
  }
  if (!check_free_list(state->cand_free_slots_, state->candidates_.size(),
                       [&](size_t i) {
                         return !state->candidates_[i].alive;
                       })) {
    return Corrupt("candidate free-slot stack disagrees with table");
  }
  for (const Candidate& cand : state->candidates_) {
    if (cand.alive && cand.owner >= state->cliques_.size()) {
      return Corrupt("candidate owner out of range");
    }
    for (NodeId u : cand.nodes) {
      if (u >= n) return Corrupt("candidate node out of range");
    }
  }
  for (const SolClique& clique : state->cliques_) {
    for (NodeId u : clique.nodes) {
      if (u >= n) return Corrupt("solution node out of range");
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t s = state->node_to_clique_[u];
    if (s != kNoClique && s >= state->cliques_.size()) {
      return Corrupt("node mapped past clique table");
    }
  }

  uint64_t solution_size = 0;
  for (const SolClique& clique : state->cliques_) {
    solution_size += clique.alive ? 1 : 0;
  }
  uint64_t alive_cands = 0;
  for (const Candidate& cand : state->candidates_) {
    alive_cands += cand.alive ? 1 : 0;
  }
  uint64_t node_refs = 0;
  for (NodeId u = 0; u < n; ++u) node_refs += state->node_cands_[u].size();
  if (solution_size != stored_solution_size ||
      alive_cands != stored_alive_cands || node_refs != stored_node_refs) {
    return Corrupt("derived counters disagree with stored values");
  }
  state->solution_size_ = static_cast<NodeId>(solution_size);
  state->alive_candidates_ = alive_cands;
  state->node_cand_refs_ = static_cast<size_t>(node_refs);
  // The change log is not persisted: no earlier packing can be patched
  // into this state, so its first publish is a full build.
  state->solution_log_intact_ = false;

  // Deep structural validation: cliques are cliques of the restored graph,
  // candidates satisfy the Section V-A characterization, counters agree.
  std::string error;
  if (!state->CheckInvariants(&error)) {
    return Corrupt(("restored state fails invariants: " + error).c_str());
  }
  return StatusOr<std::unique_ptr<SolutionState>>(std::move(state));
}

}  // namespace dkc
