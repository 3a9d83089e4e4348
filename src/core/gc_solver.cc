#include "core/gc_solver.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "clique/kclique.h"
#include "core/clique_score.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "util/memory.h"
#include "util/timer.h"

namespace dkc {

StatusOr<SolveResult> SolveGc(const Graph& g, const GcOptions& options) {
  if (options.k < 3) {
    return Status::InvalidArgument("k must be >= 3");
  }
  const Deadline deadline =
      options.budget.time_ms > 0 ? Deadline::AfterMillis(options.budget.time_ms)
                                 : Deadline::Unlimited();
  MemoryBudget memory(options.budget.memory_bytes);
  Timer timer;
  SolveResult result(options.k);

  // Line 2: store all k-cliques and compute node scores. One enumeration
  // pass fills both (chunks of roots on the pool via ParallelChunks, drained
  // in ascending chunk order); the store is the memory hazard the budget
  // guards.
  Dag dag(g,
          options.orientation != nullptr ? *options.orientation
                                         : DegeneracyOrdering(g),
          options.pool);
  CliqueStore all(options.k);
  std::vector<Count> node_scores(g.num_nodes(), 0);
  {
    const Status listed = ListKCliques(dag, options.k, options.pool, deadline,
                                       &memory, "GC", &all, &node_scores);
    if (!listed.ok()) return listed;
  }
  result.stats.cliques_listed = all.size();

  // Clique scores + ascending (score, id) order: the deterministic "fixed
  // total ordering between cliques" of Theorem 4.
  std::vector<Count> clique_score(all.size());
  for (CliqueId c = 0; c < all.size(); ++c) {
    clique_score[c] = CliqueScoreOf(all.Get(c), node_scores);
  }
  std::vector<CliqueId> order(all.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](CliqueId a, CliqueId b) {
    if (clique_score[a] != clique_score[b]) {
      return clique_score[a] < clique_score[b];
    }
    return a < b;
  });
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();

  // Lines 3-5: greedy accept in score order.
  std::vector<uint8_t> used(g.num_nodes(), 0);
  for (CliqueId c : order) {
    auto nodes = all.Get(c);
    bool disjoint = true;
    for (NodeId u : nodes) {
      if (used[u]) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) continue;
    for (NodeId u : nodes) used[u] = 1;
    result.set.Add(nodes);
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  result.stats.structure_bytes =
      g.MemoryBytes() + dag.MemoryBytes() + all.MemoryBytes() +
      static_cast<int64_t>(node_scores.capacity() * sizeof(Count)) +
      static_cast<int64_t>(clique_score.capacity() * sizeof(Count)) +
      static_cast<int64_t>(order.capacity() * sizeof(CliqueId)) +
      result.set.MemoryBytes();
  result.node_scores = std::move(node_scores);
  return result;
}

}  // namespace dkc
