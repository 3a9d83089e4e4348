#include "core/opt_solver.h"

#include <span>
#include <vector>

#include "clique/clique_graph.h"
#include "clique/kclique.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "mis/exact_mis.h"
#include "util/memory.h"
#include "util/timer.h"

namespace dkc {

StatusOr<SolveResult> SolveOpt(const Graph& g, const OptOptions& options) {
  if (options.k < 3) {
    return Status::InvalidArgument("k must be >= 3");
  }
  const Deadline deadline =
      options.budget.time_ms > 0 ? Deadline::AfterMillis(options.budget.time_ms)
                                 : Deadline::Unlimited();
  MemoryBudget memory(options.budget.memory_bytes);
  Timer timer;
  SolveResult result(options.k);

  // Step 1: all k-cliques, materialized (chunks of roots on the pool via
  // ParallelChunks, drained in ascending chunk order, so clique ids match the
  // serial enumeration exactly).
  Dag dag(g,
          options.orientation != nullptr ? *options.orientation
                                         : DegeneracyOrdering(g),
          options.pool);
  CliqueStore all(options.k);
  {
    const Status listed = ListKCliques(dag, options.k, options.pool, deadline,
                                       &memory, "OPT", &all);
    if (!listed.ok()) return listed;
  }
  result.stats.cliques_listed = all.size();

  // Step 2: the clique graph — the structure whose size explodes (Table I).
  auto clique_graph = CliqueGraph::Build(all, g.num_nodes(), &memory, deadline,
                                         options.pool);
  if (!clique_graph.ok()) return clique_graph.status();
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();

  // Step 3: exact MIS on the clique graph. A disjoint k-clique set uses k
  // distinct participating nodes per clique, so the packing number is at
  // most floor(participating / k) — a bound the generic clique-cover bound
  // inside the MIS search cannot see, and often the exact optimum on
  // clique-rich graphs (where proving optimality otherwise dominates the
  // runtime). The same bound is evaluated per clique-graph component
  // (participating nodes *of that component's cliques* / k), which is what
  // lets the component solves run independently — and hence in parallel —
  // without the serial bound-tightening chain.
  std::vector<uint8_t> in_clique(g.num_nodes(), 0);
  uint32_t participating = 0;
  for (CliqueId c = 0; c < all.size(); ++c) {
    for (NodeId u : all.Get(c)) in_clique[u] = 1;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) participating += in_clique[u];
  ExactMisParams mis_params;
  mis_params.deadline = deadline;
  mis_params.upper_bound = participating / static_cast<uint32_t>(options.k);
  mis_params.max_branch_nodes = options.budget.max_branch_nodes;
  mis_params.pool = options.pool;
  std::vector<NodeId> touched;
  mis_params.component_bound =
      [&](std::span<const uint32_t> cliques) -> uint32_t {
    touched.clear();
    uint32_t count = 0;
    for (uint32_t c : cliques) {
      for (NodeId u : all.Get(static_cast<CliqueId>(c))) {
        if (in_clique[u]) {
          in_clique[u] = 0;  // count each participating node once
          touched.push_back(u);
          ++count;
        }
      }
    }
    for (NodeId u : touched) in_clique[u] = 1;
    return count / static_cast<uint32_t>(options.k);
  };
  auto mis = ExactMis(clique_graph->adjacency(), mis_params);
  if (!mis.ok()) return mis.status();
  for (uint32_t c : mis->vertices) {
    result.set.Add(all.Get(static_cast<CliqueId>(c)));
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  result.stats.structure_bytes = g.MemoryBytes() + dag.MemoryBytes() +
                                 all.MemoryBytes() +
                                 clique_graph->MemoryBytes() +
                                 result.set.MemoryBytes();
  return result;
}

}  // namespace dkc
