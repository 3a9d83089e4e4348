#include "core/lightweight.h"

#include <algorithm>
#include <memory>
#include <queue>
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
  /// fills the minimum-score one (root first) and its clique score.
  bool FindRooted(NodeId u, std::vector<NodeId>* clique, Count* clique_score) {
    if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return false;
    kernel_.BuildFromRoot(dag_, u, valid_.data());
    if (kernel_.size() + 1 < static_cast<NodeId>(k_)) return false;
    if (!kernel_.FindMinScoreClique(k_ - 1, scores_, scores_[u], prune_,
                                    &rest_, clique_score)) {
      return false;
    }
    clique->clear();
    clique->push_back(u);
    clique->insert(clique->end(), rest_.begin(), rest_.end());
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

struct HeapEntry {
  Count score;
  NodeId root_rank;  // rank of nodes[0]; deterministic tie-break
  std::vector<NodeId> nodes;
};

struct HeapCompare {
  // std::priority_queue is a max-heap; invert for min-by-(score, rank).
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.root_rank > b.root_rank;
  }
};

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
    Dag counting_dag(g, options.orientation != nullptr
                            ? *options.orientation
                            : DegeneracyOrdering(g));
    scores = ComputeNodeScores(counting_dag, options.k, options.pool, deadline,
                               &oot);
  }
  if (oot) return Status::TimeBudgetExceeded("lightweight scoring pass");
  result.stats.cliques_listed = scores.total_cliques;

  // Lines 3-4: score-ascending total order and its DAG.
  Dag dag(g, OrderByKeyAscending(scores.per_node));
  std::vector<uint8_t> valid(g.num_nodes(), 1);

  // Lines 5-6, HeapInit: one local-minimum clique per root, in parallel via
  // ParallelChunks (uniform pool scheduling + deadline checks).
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCompare> heap;
  {
    std::vector<HeapEntry> initial;
    struct State {
      // Heap-owned arena: its address is stable across State moves, so the
      // finder's kernel can borrow it (one arena per worker, reused across
      // every root the worker drives).
      std::unique_ptr<KernelArena> arena;
      MinCliqueFinder finder;
      std::vector<NodeId> clique;
      Count clique_score = 0;
      std::vector<HeapEntry> found;
    };
    const bool completed = ParallelChunks(
        options.pool, g.num_nodes(), deadline,
        [&] {
          auto arena = std::make_unique<KernelArena>();
          KernelArena* raw = arena.get();
          return State{std::move(arena),
                       MinCliqueFinder(dag, valid, scores.per_node, options.k,
                                       options.enable_score_pruning, raw),
                       {},
                       0,
                       {}};
        },
        [&](size_t, NodeId begin, NodeId end, State* s) {
          for (NodeId u = begin; u < end; ++u) {
            if (dag.OutDegree(u) + 1 < static_cast<Count>(options.k)) continue;
            if (s->finder.FindRooted(u, &s->clique, &s->clique_score)) {
              s->found.push_back(HeapEntry{
                  s->clique_score, dag.ordering().rank[u], s->clique});
            }
          }
          return true;
        },
        [&](State* s) {
          for (auto& e : s->found) initial.push_back(std::move(e));
        });
    if (!completed) return Status::TimeBudgetExceeded("lightweight heap init");
    for (auto& e : initial) heap.push(std::move(e));
  }
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();

  // Line 7, Calculation: pop global minima; lazily refresh stale roots.
  {
    MinCliqueFinder finder(dag, valid, scores.per_node, options.k,
                           options.enable_score_pruning);
    std::vector<NodeId> clique;
    Count clique_score = 0;
    uint64_t pops = 0;
    while (!heap.empty()) {
      if ((++pops & 0xFF) == 0 && deadline.Expired()) {
        return Status::TimeBudgetExceeded("lightweight calculation loop");
      }
      HeapEntry top = heap.top();
      heap.pop();
      bool fresh = true;
      for (NodeId v : top.nodes) {
        if (!valid[v]) {
          fresh = false;
          break;
        }
      }
      if (fresh) {  // lines 34-35
        for (NodeId v : top.nodes) valid[v] = 0;
        result.set.Add(top.nodes);
        continue;
      }
      const NodeId root = top.nodes[0];
      if (valid[root] &&
          dag.OutDegree(root) + 1 >= static_cast<Count>(options.k)) {
        // Lines 37-39: refresh the local minimum for this root.
        if (finder.FindRooted(root, &clique, &clique_score)) {
          heap.push(
              HeapEntry{clique_score, dag.ordering().rank[root], clique});
        }
      }
    }
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  result.stats.structure_bytes =
      g.MemoryBytes() + dag.MemoryBytes() +
      static_cast<int64_t>(scores.per_node.capacity() * sizeof(Count)) +
      static_cast<int64_t>(valid.capacity()) +
      static_cast<int64_t>(g.num_nodes()) *
          static_cast<int64_t>(sizeof(HeapEntry) +
                               options.k * sizeof(NodeId)) +
      result.set.MemoryBytes();
  result.node_scores = std::move(scores.per_node);
  return result;
}

}  // namespace dkc
