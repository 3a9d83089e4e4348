#include "mis/exact_mis.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "mis/greedy_mis.h"

namespace dkc {
namespace {

// Shared, schedule-independent branch budget: every Solver (one per
// component, possibly on different pool threads) charges the same atomic
// counter per branch node. Whether the total crosses the cap depends only
// on the per-component search-tree sizes — fixed by the inputs and bounds —
// never on thread interleaving, so the abort decision is deterministic.
struct BranchBudget {
  std::atomic<uint64_t> used{0};
  uint64_t cap = 0;  // 0 = unlimited

  bool ChargeOne() {
    if (cap == 0) return true;
    return used.fetch_add(1, std::memory_order_relaxed) + 1 <= cap;
  }
};

class Solver {
 public:
  Solver(const std::vector<std::vector<uint32_t>>& adj,
         const Deadline& deadline, uint32_t upper_bound, BranchBudget* budget)
      : adj_(adj),
        deadline_(deadline),
        upper_bound_(upper_bound),
        budget_(budget),
        n_(static_cast<uint32_t>(adj.size())) {
    state_.assign(n_, kFree);
    degree_.resize(n_);
    init_degree_.resize(n_);
    for (uint32_t v = 0; v < n_; ++v) {
      degree_[v] = static_cast<uint32_t>(adj_[v].size());
      init_degree_[v] = degree_[v];
    }
    free_list_.resize(n_);
    free_pos_.resize(n_);
    for (uint32_t v = 0; v < n_; ++v) {
      free_list_[v] = v;
      free_pos_[v] = v;
    }
  }

  StatusOr<ExactMisResult> Run() {
    ExactMisResult result;
    bool seed_expired = false;
    best_ = GreedyMinDegreeMis(adj_, deadline_, &seed_expired);
    if (seed_expired) return Status::TimeBudgetExceeded("exact MIS seeding");
    if (best_.size() < upper_bound_) Recurse();
    if (oot_) return Status::TimeBudgetExceeded("exact MIS search");
    if (budget_blown_) {
      return Status::TimeBudgetExceeded("exact MIS branch budget");
    }
    result.vertices = best_;
    result.branch_nodes = branch_nodes_;
    result.free_scan_steps = free_scan_steps_;
    return result;
  }

 private:
  enum : uint8_t { kFree, kTaken, kRemoved };

  // A trail entry: (vertex whose state flipped away from kFree, its
  // free-list position at flip time). Degrees of free neighbors were
  // decremented at flip time; degrees and free-list slots are restored on
  // undo by replaying the trail in reverse.
  struct Trail {
    std::vector<std::pair<uint32_t, uint32_t>> flipped;
  };

  void SetState(uint32_t v, uint8_t to, Trail* trail) {
    state_[v] = to;
    const uint32_t p = free_pos_[v];
    trail->flipped.push_back({v, p});
    // Swap-remove from the free list; the inverse replay in Undo restores
    // the exact array, so free-list order is a deterministic function of
    // the operation sequence.
    const uint32_t last = free_list_.back();
    free_list_[p] = last;
    free_pos_[last] = p;
    free_list_.pop_back();
    for (uint32_t w : adj_[v]) {
      if (state_[w] == kFree && --degree_[w] <= 1) {
        // Feed the reduction worklist: only vertices whose degree just
        // dropped can newly qualify. Stale entries (re-raised by Undo,
        // already handled, or pushed outside Reduce) are re-checked and
        // skipped at pop time.
        pending_.push_back(w);
      }
    }
  }

  void Undo(const Trail& trail) {
    // Reverse order so intermediate degree values and free-list layouts
    // replay exactly.
    for (auto it = trail.flipped.rbegin(); it != trail.flipped.rend(); ++it) {
      const auto [v, p] = *it;
      state_[v] = kFree;
      free_list_.push_back(v);
      std::swap(free_list_[p], free_list_.back());
      free_pos_[free_list_[p]] = p;
      free_pos_[free_list_.back()] = static_cast<uint32_t>(
          free_list_.size() - 1);
      for (uint32_t w : adj_[v]) {
        if (state_[w] == kFree) ++degree_[w];
      }
    }
  }

  // Take v into the solution: v leaves free as kTaken, free neighbors leave
  // as kRemoved.
  void Take(uint32_t v, Trail* trail) {
    SetState(v, kTaken, trail);
    current_.push_back(v);
    for (uint32_t w : adj_[v]) {
      if (state_[w] == kFree) SetState(w, kRemoved, trail);
    }
  }

  // Exhaustively apply degree-0 / degree-1 reductions plus dominance. All
  // are safe for *maximum* IS: an isolated free vertex is always in some
  // optimum; for a pendant v-w some optimum contains v (swap argument); and
  // if adjacent u,v satisfy N[v] ⊆ N[u] then some optimum avoids u (replace
  // u by v — v's surviving neighbors are a subset of u's). The degree
  // reductions run as a worklist: one seed scan of the free list, then the
  // cascade is chased through the pending entries SetState records — a long
  // pendant chain collapses in O(chain), independent of scan order, where
  // repeated full passes degenerate to O(passes * |free|).
  void Reduce(Trail* trail) {
    for (;;) {
      pending_.clear();
      free_scan_steps_ += free_list_.size();
      for (uint32_t v : free_list_) {
        if (degree_[v] <= 1) pending_.push_back(v);
      }
      while (!pending_.empty()) {
        const uint32_t v = pending_.back();
        pending_.pop_back();
        ++free_scan_steps_;
        if (state_[v] != kFree || degree_[v] > 1) continue;
        Take(v, trail);
      }
      if (!ReduceDominance(trail)) break;
    }
  }

  // One dominance pass over the free list. Returns true if any vertex was
  // excluded.
  bool ReduceDominance(Trail* trail) {
    bool changed = false;
    free_scan_steps_ += free_list_.size();
    for (size_t idx = 0; idx < free_list_.size(); ++idx) {
      const uint32_t u = free_list_[idx];
      for (uint32_t v : adj_[u]) {
        if (state_[v] != kFree || degree_[v] > degree_[u]) continue;
        // Does every free neighbor of v (other than u) neighbor u?
        bool dominated = true;
        for (uint32_t w : adj_[v]) {
          if (w == u || state_[w] != kFree) continue;
          if (!std::binary_search(adj_[u].begin(), adj_[u].end(), w)) {
            dominated = false;
            break;
          }
        }
        if (dominated) {  // N[v] ⊆ N[u]: exclude u
          SetState(u, kRemoved, trail);
          changed = true;
          --idx;
          break;
        }
      }
    }
    return changed;
  }

  // Greedy clique cover of the free subgraph; an IS has at most one vertex
  // per clique, so the count bounds what remains attainable. Free vertices
  // are packed in descending *initial*-degree order (tighter cover), id
  // ascending on ties for determinism. Stops early once the count exceeds
  // `cap`: the caller only tests `bound > cap`, so the exact value past
  // that is irrelevant.
  uint32_t CliqueCoverBound(uint32_t cap) {
    cover_scratch_ = free_list_;
    free_scan_steps_ += free_list_.size();
    std::sort(cover_scratch_.begin(), cover_scratch_.end(),
              [&](uint32_t a, uint32_t b) {
                if (init_degree_[a] != init_degree_[b]) {
                  return init_degree_[a] > init_degree_[b];
                }
                return a < b;
              });
    cover_cliques_.clear();
    uint32_t cliques = 0;
    for (uint32_t v : cover_scratch_) {
      bool placed = false;
      for (auto& clique : cover_cliques_) {
        bool adjacent_to_all = true;
        for (uint32_t member : clique) {
          if (!std::binary_search(adj_[v].begin(), adj_[v].end(), member)) {
            adjacent_to_all = false;
            break;
          }
        }
        if (adjacent_to_all) {
          clique.push_back(v);
          placed = true;
          break;
        }
      }
      if (!placed) {
        cover_cliques_.push_back({v});
        if (++cliques > cap) return cliques;
      }
    }
    return cliques;
  }

  void Recurse() {
    if (oot_ || budget_blown_ || done_) return;
    if (!budget_->ChargeOne()) {
      budget_blown_ = true;
      return;
    }
    if ((++branch_nodes_ & 0x3F) == 0 && deadline_.Expired()) {
      oot_ = true;
      return;
    }
    Trail trail;
    const size_t current_mark = current_.size();
    Reduce(&trail);

    // Branch vertex: max current degree over the free list, smallest id on
    // ties (the order the historical 0..n-1 scan produced).
    free_scan_steps_ += free_list_.size();
    uint32_t pivot = UINT32_MAX;
    uint32_t pivot_degree = 0;
    for (uint32_t v : free_list_) {
      if (pivot == UINT32_MAX || degree_[v] > pivot_degree ||
          (degree_[v] == pivot_degree && v < pivot)) {
        pivot = v;
        pivot_degree = degree_[v];
      }
    }
    // Remaining slack before the bound can prune; 0 when `current_` already
    // ties or beats `best_` (then any nonempty remainder explores).
    const uint32_t gap =
        best_.size() > current_.size()
            ? static_cast<uint32_t>(best_.size() - current_.size())
            : 0;
    if (pivot == UINT32_MAX) {  // no free vertex: leaf
      if (current_.size() > best_.size()) {
        best_ = current_;
        // The caller-supplied bound is attained: nothing larger exists, so
        // the remaining search would only re-prove optimality.
        if (best_.size() >= upper_bound_) done_ = true;
      }
    } else if (current_.size() + CliqueCoverBound(gap) > best_.size()) {
      {  // include pivot
        Trail branch;
        Take(pivot, &branch);  // pushes exactly pivot onto current_
        Recurse();
        current_.pop_back();
        Undo(branch);
      }
      if (!oot_ && !budget_blown_ && !done_) {  // exclude pivot
        Trail branch;
        SetState(pivot, kRemoved, &branch);
        Recurse();
        Undo(branch);
      }
    }

    current_.resize(current_mark);
    Undo(trail);
  }

  const std::vector<std::vector<uint32_t>>& adj_;
  Deadline deadline_;
  uint32_t upper_bound_;
  BranchBudget* budget_;
  uint32_t n_;
  std::vector<uint8_t> state_;
  std::vector<uint32_t> degree_;
  std::vector<uint32_t> init_degree_;
  std::vector<uint32_t> free_list_;  // free vertices, swap-removed/restored
  std::vector<uint32_t> free_pos_;   // vertex -> index in free_list_
  std::vector<uint32_t> pending_;    // degree-reduction worklist (Reduce)
  std::vector<uint32_t> current_;
  std::vector<uint32_t> best_;
  std::vector<uint32_t> cover_scratch_;
  std::vector<std::vector<uint32_t>> cover_cliques_;
  uint64_t branch_nodes_ = 0;
  uint64_t free_scan_steps_ = 0;
  bool oot_ = false;
  bool budget_blown_ = false;
  bool done_ = false;  // incumbent reached upper_bound_; unwind immediately
};

// Labels connected components; returns their count. `comp[v]` gets the
// component index of v, assigned in order of smallest member id.
uint32_t LabelComponents(const std::vector<std::vector<uint32_t>>& adj,
                         std::vector<uint32_t>* comp) {
  const uint32_t n = static_cast<uint32_t>(adj.size());
  comp->assign(n, UINT32_MAX);
  uint32_t count = 0;
  std::vector<uint32_t> stack;
  for (uint32_t v = 0; v < n; ++v) {
    if ((*comp)[v] != UINT32_MAX) continue;
    (*comp)[v] = count;
    stack.assign(1, v);
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      for (uint32_t w : adj[u]) {
        if ((*comp)[w] == UINT32_MAX) {
          (*comp)[w] = count;
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  return count;
}

// Solves one multi-vertex component on its remapped local adjacency.
// `nodes` is ascending, so the position-based remap keeps lists sorted.
// `local_id` is the precomputed global -> in-component position table
// (components partition the vertices, so one shared read-only table serves
// every concurrent solve).
StatusOr<ExactMisResult> SolveComponent(
    const std::vector<std::vector<uint32_t>>& adj,
    const std::vector<uint32_t>& nodes, const std::vector<uint32_t>& local_id,
    const Deadline& deadline, uint32_t bound, BranchBudget* budget) {
  std::vector<std::vector<uint32_t>> local_adj(nodes.size());
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    local_adj[i].reserve(adj[nodes[i]].size());
    for (uint32_t w : adj[nodes[i]]) {
      local_adj[i].push_back(local_id[w]);
    }
  }
  return Solver(local_adj, deadline, bound, budget).Run();
}

}  // namespace

StatusOr<ExactMisResult> ExactMis(
    const std::vector<std::vector<uint32_t>>& adj,
    const ExactMisParams& params) {
  BranchBudget budget;
  budget.cap = params.max_branch_nodes;

  // Component decomposition: a maximum IS is the union of per-component
  // maxima, and branch-and-bound cost is superadditive in component size,
  // so splitting first is never worse and often exponentially better (the
  // clique-cover bound cannot couple vertices across components anyway).
  std::vector<uint32_t> comp;
  const uint32_t num_comps = LabelComponents(adj, &comp);
  if (num_comps <= 1) {
    uint32_t bound = params.upper_bound;
    if (params.component_bound && !adj.empty()) {
      std::vector<uint32_t> all(adj.size());
      for (uint32_t v = 0; v < adj.size(); ++v) all[v] = v;
      bound = std::min(bound, params.component_bound(all));
    }
    return Solver(adj, params.deadline, bound, &budget).Run();
  }

  const uint32_t n = static_cast<uint32_t>(adj.size());
  std::vector<std::vector<uint32_t>> members(num_comps);
  for (uint32_t v = 0; v < n; ++v) members[comp[v]].push_back(v);
  std::vector<uint32_t> local_id(n, 0);
  for (uint32_t c = 0; c < num_comps; ++c) {
    for (uint32_t i = 0; i < members[c].size(); ++i) {
      local_id[members[c][i]] = i;
    }
  }

  // Per-component bounds are fixed up front, independent of solve order, so
  // serial and pool-parallel runs prove (and find) exactly the same optima.
  std::vector<uint32_t> bounds(num_comps, params.upper_bound);
  if (params.component_bound) {
    for (uint32_t c = 0; c < num_comps; ++c) {
      if (members[c].size() > 1) {
        bounds[c] = std::min(bounds[c], params.component_bound(members[c]));
      }
    }
  }

  // Every entry starts as "not run", so a component the driver never
  // reached cannot pass for an empty optimum.
  const Status not_run =
      Status::TimeBudgetExceeded("exact MIS component not solved");
  std::vector<StatusOr<ExactMisResult>> solved(num_comps, not_run);
  const bool completed = ParallelChunks(
      params.pool, num_comps, params.deadline, [] { return 0; },
      [&](size_t, uint32_t begin, uint32_t end, int*) {
        for (uint32_t c = begin; c < end; ++c) {
          if (members[c].size() == 1) continue;
          solved[c] = SolveComponent(adj, members[c], local_id, params.deadline,
                                     bounds[c], &budget);
        }
        return true;
      },
      [](int*) {});
  if (!completed) return not_run;

  // Deterministic ordered merge: components ascending, isolated vertices
  // (always in some optimum) inlined in place.
  ExactMisResult total;
  for (uint32_t c = 0; c < num_comps; ++c) {
    const auto& nodes = members[c];
    if (nodes.size() == 1) {
      total.vertices.push_back(nodes[0]);
      continue;
    }
    if (!solved[c].ok()) return solved[c].status();
    for (uint32_t v : solved[c]->vertices) total.vertices.push_back(nodes[v]);
    total.branch_nodes += solved[c]->branch_nodes;
    total.free_scan_steps += solved[c]->free_scan_steps;
  }
  return total;
}

StatusOr<ExactMisResult> ExactMis(
    const std::vector<std::vector<uint32_t>>& adj, const Deadline& deadline,
    uint32_t upper_bound) {
  ExactMisParams params;
  params.deadline = deadline;
  params.upper_bound = upper_bound;
  return ExactMis(adj, params);
}

}  // namespace dkc
