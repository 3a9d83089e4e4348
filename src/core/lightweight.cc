#include "core/lightweight.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "clique/kclique.h"
#include "clique/neighborhood.h"
#include "core/clique_score.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dkc {
namespace {

// FindMin (Algorithm 3, lines 16-29): locally minimum clique-score k-clique
// rooted at u, searched inside the valid part of N+(u). A thin adapter over
// NeighborhoodKernel::FindMinScoreClique, which carries the score-driven
// pruning (lines 19-20 / 27-28): a branch is cut as soon as the running sum
// plus the next node's score exceeds the best complete clique found.
// Pruning never changes the result: only strictly-worse completions are
// skipped, and ties are resolved "first found in DFS order" both ways.
class MinCliqueFinder {
 public:
  MinCliqueFinder(const Dag& dag, const std::vector<uint8_t>& valid,
                  const std::vector<Count>& node_scores, int k, bool prune,
                  KernelArena* arena = nullptr)
      : dag_(dag),
        valid_(valid),
        scores_(node_scores),
        k_(k),
        prune_(prune),
        kernel_(arena) {
    rest_.reserve(static_cast<size_t>(k));
  }

  /// Returns true iff some k-clique rooted at `u` exists among valid nodes;
  /// writes the minimum-score one (root first) to clique[0..k) and its
  /// clique score. `clique` is left untouched on failure.
  bool FindRooted(NodeId u, NodeId* clique, Count* clique_score) {
    if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return false;
    kernel_.BuildFromRoot(dag_, u, valid_.data());
    if (kernel_.size() + 1 < static_cast<NodeId>(k_)) return false;
    if (!kernel_.FindMinScoreClique(k_ - 1, scores_, scores_[u], prune_,
                                    &rest_, clique_score)) {
      return false;
    }
    clique[0] = u;
    std::copy(rest_.begin(), rest_.end(), clique + 1);
    return true;
  }

 private:
  const Dag& dag_;
  const std::vector<uint8_t>& valid_;
  const std::vector<Count>& scores_;
  int k_;
  bool prune_;
  NeighborhoodKernel kernel_;
  std::vector<NodeId> rest_;
};

// A queue key: (root's current minimum clique score, root's rank). Ranks
// are unique and the queue never holds two keys for one root, so keys are
// unique: the pop order is fixed whatever order the keys were loaded in.
using HeapKey = std::pair<Count, NodeId>;
using MinFirst = std::greater<HeapKey>;  // std heaps are max-heaps

}  // namespace

StatusOr<SolveResult> SolveLightweight(const Graph& g,
                                       const LightweightOptions& options) {
  if (options.k < 3) {
    return Status::InvalidArgument("k must be >= 3");
  }
  const Deadline deadline =
      options.budget.time_ms > 0 ? Deadline::AfterMillis(options.budget.time_ms)
                                 : Deadline::Unlimited();
  Timer timer;
  SolveResult result(options.k);

  // Line 2: node scores from a counting pass (degeneracy orientation — any
  // total order works for counting; degeneracy keeps it fast).
  bool oot = false;
  NodeScores scores;
  {
    Dag counting_dag(g,
                     options.orientation != nullptr ? *options.orientation
                                                    : DegeneracyOrdering(g),
                     options.pool);
    scores = ComputeNodeScores(counting_dag, options.k, options.pool, deadline,
                               &oot);
  }
  if (oot) return Status::TimeBudgetExceeded("lightweight scoring pass");
  result.stats.cliques_listed = scores.total_cliques;

  // Lines 3-4: score-ascending total order and its DAG.
  Dag dag(g, OrderByKeyAscending(scores.per_node), options.pool);
  const std::vector<NodeId>& by_rank = dag.ordering().nodes;
  std::vector<uint8_t> valid(g.num_nodes(), 1);

  // Each root's current local-minimum clique lives in its row of one flat
  // n x k slab; the queue holds only (score, rank) keys, so no entry
  // allocates and no pop copies a clique.
  const size_t k = static_cast<size_t>(options.k);
  std::vector<NodeId> slab(static_cast<size_t>(g.num_nodes()) * k);
  std::vector<HeapKey> heap;

  // Lines 5-6, HeapInit: one local-minimum clique per root, in parallel via
  // ParallelChunks (uniform pool scheduling + deadline checks). Each worker
  // writes the slab rows of the roots it drives and collects their keys;
  // the merged keys are heapified once.
  {
    struct State {
      // Heap-owned arena: its address is stable across State moves, so the
      // finder's kernel can borrow it (one arena per worker, reused across
      // every root the worker drives).
      std::unique_ptr<KernelArena> arena;
      MinCliqueFinder finder;
      std::vector<HeapKey> found;
    };
    const bool completed = ParallelChunks(
        options.pool, g.num_nodes(), deadline,
        [&] {
          auto arena = std::make_unique<KernelArena>();
          KernelArena* raw = arena.get();
          return State{std::move(arena),
                       MinCliqueFinder(dag, valid, scores.per_node, options.k,
                                       options.enable_score_pruning, raw),
                       {}};
        },
        [&](size_t, NodeId begin, NodeId end, State* s) {
          Count score = 0;
          for (NodeId u = begin; u < end; ++u) {
            if (s->finder.FindRooted(u, &slab[u * k], &score)) {
              s->found.emplace_back(score, dag.ordering().rank[u]);
            }
          }
          return true;
        },
        [&](State* s) {
          heap.insert(heap.end(), s->found.begin(), s->found.end());
        });
    if (!completed) return Status::TimeBudgetExceeded("lightweight heap init");
    std::make_heap(heap.begin(), heap.end(), MinFirst());
  }
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();

  // Line 7, Calculation: pop global minima; lazily refresh stale roots.
  {
    MinCliqueFinder finder(dag, valid, scores.per_node, options.k,
                           options.enable_score_pruning);
    Count score = 0;
    uint64_t pops = 0;
    while (!heap.empty()) {
      if ((++pops & 0xFF) == 0 && deadline.Expired()) {
        return Status::TimeBudgetExceeded("lightweight calculation loop");
      }
      std::pop_heap(heap.begin(), heap.end(), MinFirst());
      const NodeId rank = heap.back().second;
      heap.pop_back();
      const NodeId root = by_rank[rank];
      NodeId* clique = &slab[root * k];
      const bool fresh = std::all_of(clique, clique + k,
                                     [&](NodeId v) { return valid[v] != 0; });
      if (fresh) {  // lines 34-35
        for (size_t i = 0; i < k; ++i) valid[clique[i]] = 0;
        result.set.Add(std::span<const NodeId>(clique, k));
        continue;
      }
      // Lines 37-39: refresh the local minimum for this root.
      if (valid[root] && finder.FindRooted(root, clique, &score)) {
        heap.emplace_back(score, rank);
        std::push_heap(heap.begin(), heap.end(), MinFirst());
      }
    }
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  // The heap's share is the n x k slab plus the (score, rank) key array.
  result.stats.structure_bytes =
      g.MemoryBytes() + dag.MemoryBytes() +
      static_cast<int64_t>(scores.per_node.capacity() * sizeof(Count)) +
      static_cast<int64_t>(valid.capacity()) +
      static_cast<int64_t>(slab.capacity() * sizeof(NodeId)) +
      static_cast<int64_t>(heap.capacity() * sizeof(HeapKey)) +
      result.set.MemoryBytes();
  result.node_scores = std::move(scores.per_node);
  return result;
}

}  // namespace dkc
