#include "clique/neighborhood.h"

#include <algorithm>

// IntersectSorted and the word-level primitives live in
// clique/intersect.{h,cc}.

namespace dkc {

void NeighborhoodKernel::PrepareMap(NodeId num_nodes) {
  if (a_->local_of.size() < num_nodes) {
    a_->local_of.resize(num_nodes, 0);
    a_->map_epoch.resize(num_nodes, 0);
  }
  // Bumping the epoch invalidates every previous entry at once — no walk
  // over the old universe. On the (rare) wrap, everything really is stale,
  // so one full reset restores the invariant.
  if (++a_->epoch == 0) {
    std::fill(a_->map_epoch.begin(), a_->map_epoch.end(), 0);
    a_->epoch = 1;
  }
}

void NeighborhoodKernel::MaterializeRow(NodeId i, uint64_t* row) {
  // Two-phase bulk build: compact the epoch-valid local ids first (the
  // branch-free gather — the stamp check is data-dependent and would
  // mispredict as a branch), then set the bits from the compact list.
  const auto nbrs = dag_->OutNeighbors(uni_[i]);
  if (a_->gather_scratch.size() < nbrs.size()) {
    a_->gather_scratch.resize(nbrs.size());
  }
  const size_t cnt =
      GatherValidLocalIds(nbrs.data(), nbrs.size(), a_->map_epoch.data(),
                          a_->epoch, a_->local_of.data(),
                          a_->gather_scratch.data());
  const NodeId* js = a_->gather_scratch.data();
  if (words_ == 1) {
    uint64_t bits = 0;
    for (size_t t = 0; t < cnt; ++t) bits |= uint64_t{1} << js[t];
    row[0] = bits;
  } else {
    std::fill_n(row, words_, uint64_t{0});
    for (size_t t = 0; t < cnt; ++t) {
      row[js[t] >> 6] |= uint64_t{1} << (js[t] & 63);
    }
  }
  a_->deg_bound[i] = static_cast<Count>(cnt);
  a_->row_built[i >> 6] |= uint64_t{1} << (i & 63);
  ++rows_built_;
}

NodeId NeighborhoodKernel::BuildFromRoot(const Dag& dag, NodeId root,
                                         const uint8_t* valid) {
  PrepareMap(dag.num_nodes());
  has_root_ = true;
  root_ = root;
  dag_ = &dag;
  rows_built_ = 0;
  row_state_ = RowState::kUnset;
  if (valid == nullptr) {
    // Unfiltered universe: the DAG's sorted out-list IS the universe —
    // point at it instead of copying (the counting/scoring hot path).
    const auto out = dag.OutNeighbors(root);
    uni_ = out.data();
    s_ = static_cast<NodeId>(out.size());
  } else {
    a_->local_nodes.clear();
    dag.InducedOutNeighborhood(root, valid, &a_->local_nodes);
    uni_ = a_->local_nodes.data();
    s_ = static_cast<NodeId>(a_->local_nodes.size());
  }
  const uint32_t epoch = a_->epoch;
  for (NodeId i = 0; i < s_; ++i) {
    a_->local_of[uni_[i]] = i;
    a_->map_epoch[uni_[i]] = epoch;
  }

  use_bitmap_ = s_ <= kMaxBitmapNodes;
  if (use_bitmap_) {
    // Only the remap exists so far; the first traversal picks how rows
    // come to exist (bulk for exhaustive passes, on-first-touch for pruned
    // ones) — see RowState.
    words_ = (s_ + 63) / 64;
  } else {
    a_->deg_bound.resize(s_);
    a_->adj_offsets.assign(s_ + 1, 0);
    a_->adj_list.clear();
    for (NodeId i = 0; i < s_; ++i) {
      // OutNeighbors is ascending in node id and local ids are assigned in
      // that same order, so each local list comes out sorted (the bulk
      // gather preserves input order).
      const auto nbrs = dag.OutNeighbors(uni_[i]);
      if (a_->gather_scratch.size() < nbrs.size()) {
        a_->gather_scratch.resize(nbrs.size());
      }
      const size_t cnt =
          GatherValidLocalIds(nbrs.data(), nbrs.size(), a_->map_epoch.data(),
                              epoch, a_->local_of.data(),
                              a_->gather_scratch.data());
      a_->adj_list.insert(a_->adj_list.end(), a_->gather_scratch.data(),
                          a_->gather_scratch.data() + cnt);
      a_->adj_offsets[i + 1] = static_cast<Count>(a_->adj_list.size());
      a_->deg_bound[i] = a_->adj_offsets[i + 1] - a_->adj_offsets[i];
    }
  }
  return s_;
}

void NeighborhoodKernel::PrepareLazyRows() {
  // Rows keep stale contents from earlier roots: each row is cleared and
  // filled only when a DFS branch first touches it (MaterializeRow). Until
  // then deg_bound holds the cheap upper bound min(out-degree, s-1) — it
  // can only over-admit branches, never change results (see design note).
  a_->rows.resize(static_cast<size_t>(s_) * words_);
  a_->row_built.assign(words_, 0);
  a_->deg_bound.resize(s_);
  for (NodeId i = 0; i < s_; ++i) {
    a_->deg_bound[i] = std::min<Count>(dag_->OutDegree(uni_[i]), s_ - 1);
  }
  row_state_ = RowState::kLazy;
}

void NeighborhoodKernel::MaterializeAllRows() {
  if (row_state_ == RowState::kAllBuilt) return;
  if (row_state_ == RowState::kLazy) {
    for (NodeId i = 0; i < s_; ++i) {
      uint64_t* row = a_->rows.data() + static_cast<size_t>(i) * words_;
      if ((a_->row_built[i >> 6] >> (i & 63) & 1) == 0) MaterializeRow(i, row);
    }
  } else {
    // Straight from kUnset: one tight fill pass, no per-row bookkeeping —
    // the eager build of kernel v1, with each row's neighbor filter run
    // through the bulk gather (see MaterializeRow).
    a_->row_built.assign(words_, ~uint64_t{0});
    a_->deg_bound.resize(s_);
    const uint32_t epoch = a_->epoch;
    const uint32_t* stamps = a_->map_epoch.data();
    const NodeId* local_of = a_->local_of.data();
    if (words_ == 1) {
      // One-word rows accumulate in a register and store once: no memset,
      // no read-modify-write per edge.
      a_->rows.resize(s_);
      for (NodeId i = 0; i < s_; ++i) {
        const auto nbrs = dag_->OutNeighbors(uni_[i]);
        if (a_->gather_scratch.size() < nbrs.size()) {
          a_->gather_scratch.resize(nbrs.size());
        }
        const size_t cnt =
            GatherValidLocalIds(nbrs.data(), nbrs.size(), stamps, epoch,
                                local_of, a_->gather_scratch.data());
        const NodeId* js = a_->gather_scratch.data();
        uint64_t row = 0;
        for (size_t t = 0; t < cnt; ++t) row |= uint64_t{1} << js[t];
        a_->rows[i] = row;
        a_->deg_bound[i] = static_cast<Count>(cnt);
      }
    } else {
      a_->rows.assign(static_cast<size_t>(s_) * words_, 0);
      for (NodeId i = 0; i < s_; ++i) {
        uint64_t* row = a_->rows.data() + static_cast<size_t>(i) * words_;
        const auto nbrs = dag_->OutNeighbors(uni_[i]);
        if (a_->gather_scratch.size() < nbrs.size()) {
          a_->gather_scratch.resize(nbrs.size());
        }
        const size_t cnt =
            GatherValidLocalIds(nbrs.data(), nbrs.size(), stamps, epoch,
                                local_of, a_->gather_scratch.data());
        const NodeId* js = a_->gather_scratch.data();
        for (size_t t = 0; t < cnt; ++t) {
          row[js[t] >> 6] |= uint64_t{1} << (js[t] & 63);
        }
        a_->deg_bound[i] = static_cast<Count>(cnt);
      }
    }
    rows_built_ = s_;
  }
  row_state_ = RowState::kAllBuilt;
}

NodeId NeighborhoodKernel::BuildFromSubset(const DynamicGraph& g,
                                           std::span<const NodeId> subset) {
  has_root_ = false;
  dag_ = nullptr;
  a_->local_nodes.assign(subset.begin(), subset.end());
  uni_ = a_->local_nodes.data();
  s_ = static_cast<NodeId>(subset.size());

  use_bitmap_ = s_ <= kMaxBitmapNodes;
  a_->deg_bound.assign(s_, 0);
  // Eager build: the orientation walk below produces every row as a
  // by-product of recovering local positions.
  row_state_ = RowState::kAllBuilt;
  if (use_bitmap_) {
    words_ = (s_ + 63) / 64;
    a_->rows.assign(static_cast<size_t>(s_) * words_, 0);
    a_->row_built.assign(words_, ~uint64_t{0});
  } else {
    a_->adj_offsets.assign(s_ + 1, 0);
    a_->adj_list.clear();
  }
  rows_built_ = s_;
  // No global-id map here: `subset` and every neighbor list are sorted, so
  // a two-pointer walk recovers local positions without touching O(n)
  // state — this path runs once per dynamic update on tiny subsets.
  for (NodeId j = 0; j < s_; ++j) {
    const auto neighbors = g.Neighbors(subset[j]);
    size_t ni = 0;
    // Orientation by position: row j keeps only adjacent positions i < j,
    // so each clique is rooted at its highest position exactly once.
    for (NodeId i = 0; i < j && ni < neighbors.size(); ++i) {
      while (ni < neighbors.size() && neighbors[ni] < subset[i]) ++ni;
      if (ni < neighbors.size() && neighbors[ni] == subset[i]) {
        if (use_bitmap_) {
          a_->rows[static_cast<size_t>(j) * words_ + (i >> 6)] |=
              uint64_t{1} << (i & 63);
        } else {
          a_->adj_list.push_back(i);
        }
        ++a_->deg_bound[j];
      }
    }
    if (!use_bitmap_) {
      a_->adj_offsets[j + 1] = static_cast<Count>(a_->adj_list.size());
    }
  }
  return s_;
}

namespace {

struct CountVisitor {
  static constexpr bool kLeafIterates = false;
  Count total = 0;
  bool Enter(NodeId) { return true; }
  void Exit(NodeId) {}
  bool LeafCount(Count n) {
    total += n;
    return true;
  }
  bool LeafId(NodeId) { return true; }
};

struct ScoreVisitor {
  static constexpr bool kLeafIterates = true;
  const NodeId* local_nodes;
  Count* counts;
  Count* subtree;  // q+1 slots; subtree[depth] = cliques closed below here
  int depth = 0;
  Count total = 0;
  bool Enter(NodeId) {
    subtree[++depth] = 0;
    return true;
  }
  void Exit(NodeId i) {
    // A branch node participates in exactly the cliques its subtree
    // closed: fold the counter down instead of walking the whole prefix on
    // every leaf bundle (O(1) per node instead of O(depth) per leaf).
    const Count c = subtree[depth--];
    counts[local_nodes[i]] += c;
    subtree[depth] += c;
  }
  bool LeafCount(Count n) {
    total += n;
    subtree[depth] += n;
    return true;
  }
  bool LeafId(NodeId i) {
    ++counts[local_nodes[i]];
    return true;
  }
};

struct MinScoreVisitor {
  static constexpr bool kLeafIterates = true;
  const Count* local_scores;
  bool prune;
  Count running;  // base + scores of the current prefix
  NodeId* prefix;  // local ids, capacity q
  NodeId* best;    // local ids, capacity q
  int depth = 0;
  int best_len = 0;  // 0 until the first clique is found
  Count best_score = 0;
  bool Enter(NodeId i) {
    // Scores are non-negative, so running + score(i) lower-bounds every
    // completion of the branch — and a completion *equal* to the best can
    // never replace it (only strict improvements do), so cutting at >= is
    // safe and cannot change the first-found-in-DFS-order minimum.
    if (prune && best_len > 0 && running + local_scores[i] >= best_score) {
      return false;
    }
    prefix[depth++] = i;
    running += local_scores[i];
    return true;
  }
  void Exit(NodeId i) {
    running -= local_scores[i];
    --depth;
  }
  bool LeafCount(Count) { return true; }
  bool LeafId(NodeId i) {
    const Count candidate_total = running + local_scores[i];
    if (best_len == 0 || candidate_total < best_score) {
      best_score = candidate_total;
      std::copy(prefix, prefix + depth, best);
      best[depth] = i;
      best_len = depth + 1;
    }
    return true;
  }
};

}  // namespace

Count NeighborhoodKernel::CountCliques(int q) {
  CountVisitor visitor;
  // Counting is exhaustive — nearly every row is intersected anyway, so
  // materialize them in one sequential pass and run the read-only DFS.
  Visit(q, visitor, /*eager=*/true);
  return visitor.total;
}

Count NeighborhoodKernel::ScoreCliques(int q, std::vector<Count>* counts) {
  if (q <= 0) return 0;
  a_->subtree_counts.assign(static_cast<size_t>(q) + 1, 0);
  ScoreVisitor visitor{uni_, counts->data(),
                       a_->subtree_counts.data()};
  Visit(q, visitor, /*eager=*/true);
  return visitor.total;
}

bool NeighborhoodKernel::FindMinScoreClique(int q,
                                            std::span<const Count> scores,
                                            Count base_score, bool prune,
                                            std::vector<NodeId>* clique,
                                            Count* clique_score) {
  if (q <= 0 || s_ < static_cast<NodeId>(q)) return false;
  a_->local_scores.resize(s_);
  for (NodeId i = 0; i < s_; ++i) {
    a_->local_scores[i] = scores[uni_[i]];
  }
  a_->prefix_scratch.resize(static_cast<size_t>(q));
  a_->best_scratch.resize(static_cast<size_t>(q));
  MinScoreVisitor visitor{a_->local_scores.data(), prune, base_score,
                          a_->prefix_scratch.data(), a_->best_scratch.data()};

  // Pruned searches cut most branches early, so rows stay lazy; the
  // unpruned search visits every clique and builds them all up front.
  Visit(q, visitor, /*eager=*/!prune);
  if (visitor.best_len == 0) return false;
  clique->clear();
  for (int i = 0; i < visitor.best_len; ++i) {
    clique->push_back(uni_[a_->best_scratch[i]]);
  }
  *clique_score = visitor.best_score;
  return true;
}

}  // namespace dkc
