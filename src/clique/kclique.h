// k-clique listing and counting kernels in the kClist style of Danisch,
// Balalau, Sozio (WWW'18) [13]: orient the graph along a total ordering,
// then every k-clique is {u} ∪ ((k-1)-clique inside N+(u)) for a unique
// root u. The per-root search itself is delegated to the shared
// NeighborhoodKernel (clique/neighborhood.h): the induced out-neighborhood
// is materialized once with dense local ids and bit-matrix adjacency, so
// deeper levels intersect by word-wise AND instead of sorted merges.
//
// The counting entry points never materialize cliques — that is the
// observation the paper's lightweight algorithm (Algorithm 3, line 2) is
// built on: node scores s_n(u) (Definition 5) come out of a counting pass
// with O(m + n) residual memory.

#ifndef DKC_CLIQUE_KCLIQUE_H_
#define DKC_CLIQUE_KCLIQUE_H_

#include <functional>
#include <span>
#include <vector>

#include "clique/clique_store.h"
#include "clique/neighborhood.h"
#include "graph/dag.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "util/memory.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dkc {

/// Reusable k-clique enumeration state for one DAG: a thin adapter over
/// NeighborhoodKernel. Not thread-safe; create one enumerator per thread.
class KCliqueEnumerator {
 public:
  /// `k >= 1`. The enumerator borrows `dag` (and `arena`, when given),
  /// which must outlive it.
  KCliqueEnumerator(const Dag& dag, int k, KernelArena* arena = nullptr)
      : dag_(dag), k_(k), kernel_(arena) {}

  /// Invoke `cb(nodes)` once per k-clique, where `nodes` is a span of k node
  /// ids in descending DAG-rank order (nodes[0] is the root). `cb` returns
  /// bool; returning false stops the enumeration. ForEach returns false iff
  /// stopped early.
  template <typename F>
  bool ForEach(F&& cb) {
    for (NodeId u = 0; u < dag_.num_nodes(); ++u) {
      if (!ForEachRooted(u, cb)) return false;
    }
    return true;
  }

  /// Enumeration restricted to cliques rooted at `u` (u is the
  /// highest-ranked node of every clique reported).
  template <typename F>
  bool ForEachRooted(NodeId u, F&& cb) {
    if (k_ == 1) {
      const NodeId self[1] = {u};
      return cb(std::span<const NodeId>(self, 1));
    }
    if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return true;
    kernel_.BuildFromRoot(dag_, u);
    // Enumeration callers (GC/OPT listing, the verifier) consume the whole
    // per-root enumeration, so build the rows eagerly in one pass.
    return kernel_.ForEachClique(k_ - 1, cb, /*eager=*/true);
  }

  /// Number of k-cliques rooted at `u`.
  Count CountRooted(NodeId u);

  /// Per-node k-clique participation counts (node scores, Definition 5),
  /// accumulated into `counts` (must have num_nodes entries) for cliques
  /// rooted at `u`. Returns the number of cliques rooted at `u`.
  Count ScoreRooted(NodeId u, std::vector<Count>* counts);

 private:
  const Dag& dag_;
  int k_;
  NeighborhoodKernel kernel_;
};

/// Total number of k-cliques in the DAG'ed graph. Optionally parallel over
/// root nodes and/or bounded by a deadline (`*oot` set true on expiry).
Count CountKCliques(const Dag& dag, int k, ThreadPool* pool = nullptr,
                    const Deadline& deadline = Deadline::Unlimited(),
                    bool* oot = nullptr);

struct NodeScores {
  std::vector<Count> per_node;  // s_n(u) for every u
  Count total_cliques = 0;      // sum(per_node) / k
};

/// Node scores s_n(u) for all nodes (Definition 5) without storing cliques.
NodeScores ComputeNodeScores(const Dag& dag, int k, ThreadPool* pool = nullptr,
                             const Deadline& deadline = Deadline::Unlimited(),
                             bool* oot = nullptr);

/// Enumerate the k-cliques of the subgraph induced on `subset` in the
/// *current* state of a dynamic graph. `subset` must be sorted and unique.
/// Used by the dynamic index (Algorithm 5), where B = C ∪ free neighbors is
/// tiny. `cb` returns false to stop early. Callers on a hot path pass a
/// persistent `kernel` so the scratch arena is reused across calls; when
/// null a throwaway kernel is used. With `budget`, the DFS charges one
/// unit per branch entered and truncates at a branch boundary once the cap
/// is spent (see EnumBudget) — the dynamic engine's mid-rebuild abort.
void ForEachKCliqueInSubset(
    const DynamicGraph& g, std::span<const NodeId> subset, int k,
    const std::function<bool(std::span<const NodeId>)>& cb,
    NeighborhoodKernel* kernel = nullptr, EnumBudget* budget = nullptr);

/// Materialize every k-clique of the DAG'ed graph into `store` — and, when
/// `node_scores` is given, bump each member's participation count — in the
/// exact ascending-root DFS order of KCliqueEnumerator::ForEach. Chunks of
/// roots are listed on ParallelChunks (across `pool`'s workers when given)
/// into per-worker buffers; each finished chunk is drained into the store
/// as soon as every earlier chunk has been, in ascending chunk order, so
/// store contents and clique ids are byte-identical at any thread count and
/// without a pool the listing streams one chunk at a time. `memory`, when
/// given, is charged for the stored cliques; exhaustion returns
/// MemoryBudgetExceeded and an expired deadline returns TimeBudgetExceeded,
/// both tagged with `what`. The shared enumeration pass behind GC
/// (Algorithm 2, line 2) and OPT (step 1).
Status ListKCliques(const Dag& dag, int k, ThreadPool* pool,
                    const Deadline& deadline, MemoryBudget* memory,
                    const char* what, CliqueStore* store,
                    std::vector<Count>* node_scores = nullptr);

}  // namespace dkc

#endif  // DKC_CLIQUE_KCLIQUE_H_
