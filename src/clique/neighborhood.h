// The shared neighborhood kernel behind every k-clique DFS in the library.
//
// Design note — local remap + bitmap adjacency, v2: lazy rows + arena
// ------------------------------------------------------------------
// Every solver in this library walks the same search tree: pick a root u of
// an oriented graph, then find (k-1)-cliques inside N+(u) by repeatedly
// intersecting candidate sets with out-neighborhoods (kClist [13]). The
// naive form pays a sorted-set merge per branch. This kernel instead
// remaps the *induced* neighborhood once per root:
//
//   1. the universe (N+(u), optionally validity-filtered, or an arbitrary
//      sorted node subset) is remapped to dense local ids 0..s-1, assigned
//      in ascending global-id order;
//   2. the adjacency induced on the universe is packed into a bit matrix —
//      row i is a bitset of the local ids adjacent to i (and oriented below
//      i in subset mode), ceil(s/64) words wide;
//   3. every deeper intersection becomes a word-wise AND + popcount, and
//      candidate sets are single bitmap rows on a per-depth stack.
//
// v2 makes two structural changes over the eager per-root build:
//
//   * Lazy row materialization (root mode). Only the remap table and a
//     per-row out-degree *upper bound* are built up front; a bit-matrix row
//     is materialized the first time a DFS branch needs to intersect it,
//     tracked by a built-bitmap. Rows of candidates that are pruned before
//     ever heading a branch (low degree, score cuts, exhausted validity)
//     are never built — exactly the rows the first DFS level discards on
//     the filtered passes (HG FindOne, L/LP FindMin). `rows_built()`
//     exposes the per-build count for tests and diagnostics.
//   * KernelArena. All scratch buffers (remap tables, row storage,
//     candidate stacks, visitor scratch) live in one flat arena object
//     that persists across roots, so per-root cost is proportional to the
//     neighborhood actually touched, never to allocation. A kernel owns a
//     private arena by default; workers that drive many roots (the
//     ParallelChunks states of util/thread_pool.h, the dynamic engine's
//     per-update subset enumeration) hold one arena per worker and lend it
//     to their kernels. An arena must not be lent to two kernels that are
//     mid-traversal at the same time.
//
// The common case — DAG out-degrees are degeneracy-bounded, so per-root
// universes almost always fit one machine word — runs a specialized
// single-word recursion for every q up to kMaxFixedDepth (8): the candidate
// set is a uint64_t in a register, intersection is one AND, and the level
// is a template parameter. Deeper one-word searches (k >= 10 in root mode)
// run the multi-word recursion with one-word rows.
//
// Because local ids are ascending in global id and set bits are visited
// LSB-first, the DFS visits branches in exactly the order the historical
// sorted-merge recursions did, so counting, scoring, min-clique search and
// enumeration all produce bit-identical results — including "first found
// in DFS order" tie-breaks — just faster. Degree pruning with the lazy
// upper bound keeps this property: the bound only ever *admits* branches
// the exact induced degree would admit, and an admitted branch that cannot
// complete a clique dies at the candidate-count check without emitting
// anything.
//
// Fallback to sorted-merge: an arbitrary subset (BuildFromSubset) can be
// huge and sparse. When a row would span more than kMaxRowWords machine
// words (s > kMaxBitmapNodes), the kernel keeps the induced adjacency as
// sorted local-id lists and runs the classical merge recursion instead —
// same visit order, same results.
//
// The word-level inner loops (row gather, fused AND+popcount, sorted
// merge) are the scalar primitives of clique/intersect.h.
//
// Recursions: one per universe shape, all behind the private Visit.
//   * BitRec1Fixed<R> — bitmap, one word, q <= kMaxFixedDepth;
//   * BitRec — bitmap, any number of words (q > kMaxFixedDepth on one word,
//     or s > 64);
//   * MergeRec — sorted local-id lists, s > kMaxBitmapNodes.
// Each drives a visitor with Enter/Exit (branch hooks, Enter may prune),
// LeafCount (candidate count at the last level) and LeafId (per-candidate
// completion) hooks, in the same order.
//
// Visitors: CountVisitor, ScoreVisitor and MinScoreVisitor (neighborhood.cc)
// back CountCliques / ScoreCliques / FindMinScoreClique; EmitVisitor backs
// ForEachClique, charged against an EnumBudget or not (a compile-time flag,
// so the uncharged visitor carries no budget test). KCliqueEnumerator,
// FindMin in the lightweight solver, HG's FindOne, ForEachKCliqueInSubset
// (the dynamic engine's candidate rebuild and its insert scan) are all thin
// adapters.

#ifndef DKC_CLIQUE_NEIGHBORHOOD_H_
#define DKC_CLIQUE_NEIGHBORHOOD_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "clique/intersect.h"
#include "graph/dag.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"

namespace dkc {

/// Deterministic budget for charged enumerations: one unit per DFS branch
/// entered (the visitor Enter hook). With `cap != 0`, an Enter attempt
/// once `used >= cap` is refused and `cut` latches; every later branch is
/// refused the same way, so no clique is emitted past the cut — the
/// traversal is truncated at a branch boundary whose position depends only
/// on the universe and the budget, never on scheduling or the clock.
struct EnumBudget {
  uint64_t used = 0;
  uint64_t cap = 0;  // 0 = unlimited
  bool cut = false;
};

/// Flat scratch buffers shared by every per-root build of one worker.
/// Buffers only ever grow; reusing one arena across roots (and across the
/// kernels of one worker, one traversal at a time) makes the steady-state
/// per-root cost allocation-free.
struct KernelArena {
  // Universe / remap. The global->local map is epoch-stamped: an entry is
  // live only when its stamp matches the arena's current epoch, so a new
  // build invalidates the whole map by bumping one counter instead of
  // walking and clearing the previous universe.
  std::vector<NodeId> local_nodes;  // copy buffer (filtered/subset builds)
  std::vector<NodeId> local_of;     // global id -> local id (root mode)
  std::vector<uint32_t> map_epoch;  // stamp per global id
  uint32_t epoch = 0;
  std::vector<Count> deg_bound;     // per-local-id induced out-degree: an
                                    // upper bound until the row is built,
                                    // exact afterwards

  // Bitmap representation.
  std::vector<uint64_t> rows;       // s rows of `words` words
  std::vector<uint64_t> row_built;  // bit i set once row i is materialized
  std::vector<uint64_t> cand_stack; // one candidate bitmap per depth

  // Sorted-merge fallback representation.
  std::vector<Count> adj_offsets;
  std::vector<NodeId> adj_list;
  std::vector<NodeId> merge_full;
  std::vector<std::vector<NodeId>> merge_stack;

  // Row-construction scratch: the epoch-valid local ids of the row being
  // materialized, compacted by GatherValidLocalIds before the bits are set.
  std::vector<NodeId> gather_scratch;

  // Visitor scratch.
  std::vector<NodeId> emit;            // global ids, root-prefixed
  std::vector<NodeId> prefix_scratch;  // local ids (FindMinScoreClique)
  std::vector<NodeId> best_scratch;
  std::vector<Count> local_scores;
  std::vector<Count> subtree_counts;   // per-depth clique counters (scoring)
};

/// Reusable induced-neighborhood clique kernel. Not thread-safe; create one
/// per thread and rebuild per root — scratch memory lives in a KernelArena
/// recycled across builds, so the per-root cost is proportional to the
/// neighborhood touched, not the graph.
class NeighborhoodKernel {
 public:
  /// Widest bit-matrix row, in 64-bit words; universes larger than
  /// kMaxBitmapNodes use the sorted-merge fallback (see design note).
  static constexpr NodeId kMaxRowWords = 64;
  static constexpr NodeId kMaxBitmapNodes = kMaxRowWords * 64;

  /// Borrows `arena` when given; otherwise owns a private one. A borrowed
  /// arena must outlive the kernel and may be lent to other kernels of the
  /// same worker, one build+traversal at a time.
  explicit NeighborhoodKernel(KernelArena* arena = nullptr)
      : owned_(arena == nullptr ? std::make_unique<KernelArena>() : nullptr),
        a_(arena == nullptr ? owned_.get() : arena) {}

  /// Universe = out-neighbors of `root` in `dag` (those with non-zero
  /// `valid`, when given). Local id i maps to dag.OutNeighbors(root)[i] in
  /// ascending node-id order. Rows are built lazily on first DFS touch;
  /// `dag` must stay alive and unchanged until the last traversal. Returns
  /// the universe size s.
  NodeId BuildFromRoot(const Dag& dag, NodeId root,
                       const uint8_t* valid = nullptr);

  /// Universe = `subset` (sorted, unique) of the *current* state of `g`,
  /// oriented by position: row j holds adjacent positions i < j, so each
  /// clique is visited exactly once with its highest position as the
  /// branch head. Rows are built eagerly (the two-pointer orientation walk
  /// produces them as a by-product). Returns s = subset.size().
  NodeId BuildFromSubset(const DynamicGraph& g,
                         std::span<const NodeId> subset);

  NodeId size() const { return s_; }
  bool has_root() const { return has_root_; }
  bool uses_bitmap() const { return use_bitmap_; }
  NodeId ToGlobal(NodeId local) const { return uni_[local]; }

  /// Bit-matrix rows materialized since the last Build* call. In root mode
  /// this counts lazy builds (each row at most once — the built-bitmap
  /// guards re-entry); in subset/merge mode every row is built eagerly, so
  /// it equals size().
  NodeId rows_built() const { return rows_built_; }

  /// Number of q-cliques in the local universe (q = k-1 in root mode: the
  /// root completes each to a k-clique).
  Count CountCliques(int q);

  /// Per-node clique-participation scores: for every q-clique found, bump
  /// `(*counts)[global id]` of each member. Returns the number of
  /// q-cliques; in root mode the caller credits the root with that total.
  Count ScoreCliques(int q, std::vector<Count>* counts);

  /// Minimum-score q-clique: minimizes base_score + sum of member scores
  /// (scores indexed by global id), ties resolved first-found-in-DFS-order.
  /// With `prune`, branches whose running sum already exceeds the best are
  /// cut (never changes the result; scores are non-negative). On success
  /// fills `clique` with the member *global* ids in DFS order (root NOT
  /// included) and `clique_score` with the full sum.
  bool FindMinScoreClique(int q, std::span<const Count> scores,
                          Count base_score, bool prune,
                          std::vector<NodeId>* clique, Count* clique_score);

  /// Invoke `cb(nodes)` once per q-clique, where `nodes` spans global ids:
  /// the root first (root mode only), then the members in DFS order. `cb`
  /// returns false to stop; ForEachClique then returns false. Pass
  /// `eager = true` when `cb` will consume (nearly) the whole enumeration —
  /// full listings build every row up front; early-stopping searches leave
  /// rows lazy.
  ///
  /// With `budget`, each branch Enter charges one unit of `budget->used`
  /// and is refused once the cap is spent (see EnumBudget): the emitted
  /// cliques and their order are a prefix-by-budget of the unbudgeted
  /// enumeration, and a cut is reported through budget->cut, not the
  /// return value.
  template <typename F>
  bool ForEachClique(int q, F&& cb, bool eager = false,
                     EnumBudget* budget = nullptr) {
    a_->emit.clear();
    if (has_root_) a_->emit.push_back(root_);
    using Cb = std::remove_reference_t<F>;
    if (budget == nullptr) {
      EmitVisitor<Cb, false> visitor{&a_->emit, uni_, &cb};
      return Visit(q, visitor, eager);
    }
    EmitVisitor<Cb, true> visitor{&a_->emit, uni_, &cb, budget};
    Visit(q, visitor, eager);
    return !visitor.stopped;
  }

 private:
  static constexpr NodeId kNoLocal = kInvalidNode;
  // Deepest q with a compile-time single-word recursion (BitRec1Fixed);
  // deeper single-word searches run BitRec with words_ == 1.
  static constexpr int kMaxFixedDepth = 8;

  // Emits each clique to `callback`. Charged (kCharged), Enter spends one
  // unit of `budget` and is refused once the cap is spent; the cut
  // latches, so every later Enter is refused too and no further clique is
  // emitted. `stopped` tells a `callback` stop from a budget cut, both of
  // which abort Visit. Uncharged, the budget code compiles away.
  template <typename F, bool kCharged>
  struct EmitVisitor {
    static constexpr bool kLeafIterates = true;
    std::vector<NodeId>* emit;
    const NodeId* local_nodes;
    F* callback;
    EnumBudget* budget = nullptr;
    bool stopped = false;  // charged only: callback returned false
    bool Enter(NodeId i) {
      if constexpr (kCharged) {
        if (budget->cap != 0 && budget->used >= budget->cap) {
          budget->cut = true;
          return false;
        }
        ++budget->used;
      }
      emit->push_back(local_nodes[i]);
      return true;
    }
    void Exit(NodeId) { emit->pop_back(); }
    bool LeafCount(Count) {
      if constexpr (kCharged) return !budget->cut;
      return true;
    }
    bool LeafId(NodeId i) {
      if constexpr (kCharged) {
        if (budget->cut) return false;
      }
      emit->push_back(local_nodes[i]);
      const bool keep_going = (*callback)(std::span<const NodeId>(*emit));
      emit->pop_back();
      if constexpr (kCharged) stopped = !keep_going;
      return keep_going;
    }
  };

  void PrepareMap(NodeId num_nodes);

  /// Materializes row i (root mode): clears the row words, maps the DAG
  /// out-neighbors into local-id bits, and replaces the degree upper bound
  /// with the exact induced out-degree.
  void MaterializeRow(NodeId i, uint64_t* row);

  /// Row i of the bit matrix, building it on first touch.
  const uint64_t* RowFor(NodeId i) {
    uint64_t* row = a_->rows.data() + static_cast<size_t>(i) * words_;
    if ((a_->row_built[i >> 6] >> (i & 63) & 1) == 0) MaterializeRow(i, row);
    return row;
  }

  /// Row-structure lifecycle (root/bitmap mode). BuildFromRoot only remaps
  /// the universe; the first traversal decides how rows come to exist:
  /// kUnset -> (lazy visit) kLazy: degree upper bounds + empty built-bitmap,
  ///           rows materialize on first DFS touch;
  /// kUnset -> (eager visit) kAllBuilt: one bulk pass — matrix memset +
  ///           tight row fill, no per-row bookkeeping;
  /// kLazy  -> (eager visit) kAllBuilt once the remaining rows are filled.
  enum class RowState : uint8_t { kUnset, kLazy, kAllBuilt };

  void PrepareLazyRows();
  void MaterializeAllRows();

  /// Runs the visitor over every q-clique of the universe. With `eager`,
  /// all rows are materialized up front (right for exhaustive passes —
  /// counting/scoring touch almost every row anyway); without it, rows
  /// build lazily on first touch (right for pruned or early-stopping
  /// passes — FindMin, first-hit FindOne). Either way, once every row is
  /// built the recursion switches to a read-only variant whose row/degree
  /// pointers the compiler can hoist out of the branch loops (the lazy
  /// variant's potential MaterializeRow call forces reloads). Returns
  /// false iff a leaf hook aborted the traversal.
  template <typename V>
  bool Visit(int q, V& visitor, bool eager = false) {
    if (q <= 0 || s_ < static_cast<NodeId>(q)) return true;
    if (use_bitmap_) {
      if (q >= 2) {  // q == 1 is leaf-only: no rows, no degree checks
        if (eager) {
          MaterializeAllRows();
        } else if (row_state_ == RowState::kUnset) {
          PrepareLazyRows();
        }
      }
      const bool built = row_state_ == RowState::kAllBuilt;
      if (words_ == 1 && q <= kMaxFixedDepth) {
        const uint64_t full =
            s_ == 64 ? ~uint64_t{0} : (uint64_t{1} << s_) - 1;
        // Fixed-depth dispatch: for the q every workload here uses, make
        // the level a template parameter — no `remaining` register, each
        // level's checks constant-folded, levels inlined into each other.
        switch (q) {
          case 1: return BitRec1Fixed<false, 1>(full, visitor);
          case 2:
            return built ? BitRec1Fixed<false, 2>(full, visitor)
                         : BitRec1Fixed<true, 2>(full, visitor);
          case 3:
            return built ? BitRec1Fixed<false, 3>(full, visitor)
                         : BitRec1Fixed<true, 3>(full, visitor);
          case 4:
            return built ? BitRec1Fixed<false, 4>(full, visitor)
                         : BitRec1Fixed<true, 4>(full, visitor);
          case 5:
            return built ? BitRec1Fixed<false, 5>(full, visitor)
                         : BitRec1Fixed<true, 5>(full, visitor);
          case 6:
            return built ? BitRec1Fixed<false, 6>(full, visitor)
                         : BitRec1Fixed<true, 6>(full, visitor);
          case 7:
            return built ? BitRec1Fixed<false, 7>(full, visitor)
                         : BitRec1Fixed<true, 7>(full, visitor);
          default:  // q == kMaxFixedDepth
            return built ? BitRec1Fixed<false, kMaxFixedDepth>(full, visitor)
                         : BitRec1Fixed<true, kMaxFixedDepth>(full, visitor);
        }
      }
      a_->cand_stack.resize(static_cast<size_t>(q) * words_);
      uint64_t* full = a_->cand_stack.data();
      for (NodeId w = 0; w < words_; ++w) full[w] = ~uint64_t{0};
      if ((s_ & 63) != 0) full[words_ - 1] = (uint64_t{1} << (s_ & 63)) - 1;
      return built ? BitRec<false>(q, full, 0, visitor)
                   : BitRec<true>(q, full, 0, visitor);
    }
    a_->merge_stack.resize(static_cast<size_t>(q));
    a_->merge_full.resize(s_);
    for (NodeId i = 0; i < s_; ++i) a_->merge_full[i] = i;
    return MergeRec(q, a_->merge_full, 0, visitor);
  }

  /// Single-word traversal with a compile-time level (s <= 64 and
  /// q <= kMaxFixedDepth, the hot shape): the candidate set lives in a
  /// register and intersection is one AND. Semantically identical to
  /// BitRec below with words_ == 1 and remaining == R.
  template <bool kLazy, int R, typename V>
  bool BitRec1Fixed(uint64_t cand, V& visitor) {
    if constexpr (R == 1) {
      if (!visitor.LeafCount(static_cast<Count>(std::popcount(cand)))) {
        return false;
      }
      if constexpr (V::kLeafIterates) {
        for (uint64_t bits = cand; bits != 0; bits &= bits - 1) {
          if (!visitor.LeafId(static_cast<NodeId>(std::countr_zero(bits)))) {
            return false;
          }
        }
      }
      return true;
    } else {
      const uint64_t* rows = a_->rows.data();
      const Count* deg = a_->deg_bound.data();
      for (uint64_t bits = cand; bits != 0; bits &= bits - 1) {
        const NodeId i = static_cast<NodeId>(std::countr_zero(bits));
        if (deg[i] + 1 < static_cast<Count>(R)) continue;
        if (!visitor.Enter(i)) continue;
        uint64_t row;
        if constexpr (kLazy) {
          row = *RowFor(i);
        } else {
          row = rows[i];
        }
        const uint64_t next = cand & row;
        bool keep_going = true;
        if constexpr (R == 2) {
          if (next != 0) {
            keep_going =
                visitor.LeafCount(static_cast<Count>(std::popcount(next)));
            if constexpr (V::kLeafIterates) {
              for (uint64_t lb = next; keep_going && lb != 0; lb &= lb - 1) {
                keep_going = visitor.LeafId(
                    static_cast<NodeId>(std::countr_zero(lb)));
              }
            }
          }
        } else {
          if (std::popcount(next) + 1 >= R) {
            keep_going = BitRec1Fixed<kLazy, R - 1>(next, visitor);
          }
        }
        visitor.Exit(i);
        if (!keep_going) return false;
      }
      return true;
    }
  }

  template <bool kLazy, typename V>
  bool BitRec(int remaining, const uint64_t* cand, int depth, V& visitor) {
    if (remaining == 1) {
      const Count n = PopcountWords(cand, words_);
      if (!visitor.LeafCount(n)) return false;
      if constexpr (V::kLeafIterates) {
        for (NodeId w = 0; w < words_; ++w) {
          uint64_t bits = cand[w];
          while (bits != 0) {
            const NodeId i =
                w * 64 + static_cast<NodeId>(std::countr_zero(bits));
            bits &= bits - 1;
            if (!visitor.LeafId(i)) return false;
          }
        }
      }
      return true;
    }
    for (NodeId w = 0; w < words_; ++w) {
      uint64_t bits = cand[w];
      while (bits != 0) {
        const NodeId i = w * 64 + static_cast<NodeId>(std::countr_zero(bits));
        bits &= bits - 1;
        // Degree prune. In lazy mode the bound may over-admit until the row
        // is built; over-admitted branches die at the candidate-count check
        // below without emitting anything, so results never change. The
        // visitor probe runs before the row build so score-pruned branches
        // never materialize anything.
        if (a_->deg_bound[i] + 1 < static_cast<Count>(remaining)) continue;
        if (!visitor.Enter(i)) continue;
        const uint64_t* row;
        if constexpr (kLazy) {
          row = RowFor(i);
        } else {
          row = a_->rows.data() + static_cast<size_t>(i) * words_;
        }
        // cand may alias cand_stack: resolve `next` after RowFor, which
        // never touches the stack. `next` never overlaps `cand`/`row` —
        // they are distinct depth slots and the row matrix respectively.
        uint64_t* next =
            a_->cand_stack.data() + static_cast<size_t>(depth + 1) * words_;
        const Count n = AndPopcountWords(cand, row, next, words_);
        bool keep_going = true;
        if (n + 1 >= static_cast<Count>(remaining)) {
          keep_going = BitRec<kLazy>(remaining - 1, next, depth + 1, visitor);
        }
        visitor.Exit(i);
        if (!keep_going) return false;
      }
    }
    return true;
  }

  template <typename V>
  bool MergeRec(int remaining, std::span<const NodeId> cand, int depth,
                V& visitor) {
    if (remaining == 1) {
      if (!visitor.LeafCount(cand.size())) return false;
      if constexpr (V::kLeafIterates) {
        for (NodeId i : cand) {
          if (!visitor.LeafId(i)) return false;
        }
      }
      return true;
    }
    for (NodeId i : cand) {
      if (a_->deg_bound[i] + 1 < static_cast<Count>(remaining)) continue;
      if (!visitor.Enter(i)) continue;
      // Aliasing audit (IntersectSorted forbids out overlapping an input):
      // `cand` views merge_full or merge_stack[depth-1], LocalNeighbors
      // views adj_list, and `next` is merge_stack[depth] — three distinct
      // allocations at every depth.
      auto& next = a_->merge_stack[depth];
      IntersectSorted(cand, LocalNeighbors(i), &next);
      bool keep_going = true;
      if (next.size() + 1 >= static_cast<size_t>(remaining)) {
        keep_going = MergeRec(remaining - 1, next, depth + 1, visitor);
      }
      visitor.Exit(i);
      if (!keep_going) return false;
    }
    return true;
  }

  std::span<const NodeId> LocalNeighbors(NodeId i) const {
    return {a_->adj_list.data() + a_->adj_offsets[i],
            a_->adj_list.data() + a_->adj_offsets[i + 1]};
  }

  std::unique_ptr<KernelArena> owned_;  // null when borrowing
  KernelArena* a_;

  // Universe. `uni_` (local id -> global id, ascending) points into the
  // DAG's own out-list for unfiltered root builds — zero copies — and into
  // the arena's buffer for filtered/subset builds.
  const NodeId* uni_ = nullptr;
  NodeId s_ = 0;
  NodeId root_ = 0;
  bool has_root_ = false;
  bool use_bitmap_ = true;
  RowState row_state_ = RowState::kUnset;
  const Dag* dag_ = nullptr;  // lazy row source (root mode)
  NodeId words_ = 0;
  NodeId rows_built_ = 0;
};

}  // namespace dkc

#endif  // DKC_CLIQUE_NEIGHBORHOOD_H_
