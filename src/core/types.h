// Shared result/option types for the disjoint k-clique solvers.

#ifndef DKC_CORE_TYPES_H_
#define DKC_CORE_TYPES_H_

#include <cstdint>
#include <vector>

#include "clique/clique_store.h"
#include "graph/graph.h"
#include "graph/preprocess.h"
#include "util/thread_pool.h"

namespace dkc {

/// Wall-clock / footprint accounting reported by every solver. Mirrors what
/// the paper measures: Figure 6 reports init + calculation time together,
/// Table III reports space.
struct SolveStats {
  double init_ms = 0.0;      // ordering, scoring, heap/index setup
  double compute_ms = 0.0;   // the greedy/selection phase
  double total_ms() const { return init_ms + compute_ms; }

  /// k-cliques visited by the listing/scoring kernels (GC additionally
  /// stores this many cliques).
  Count cliques_listed = 0;

  /// Bytes held by the solver's dominant data structures (graph, DAG,
  /// scores, heap/store), the quantity Table III tracks.
  int64_t structure_bytes = 0;
};

/// A computed disjoint k-clique set plus its statistics.
struct SolveResult {
  explicit SolveResult(int k) : set(k) {}

  CliqueStore set;
  SolveStats stats;

  /// Graph-shrinking accounting when the Solve() facade ran the
  /// preprocessing pipeline (nodes_before == 0 otherwise). Solution node
  /// ids are always reported in the caller's original id space.
  PreprocessStats preprocess;

  /// s_n(u), the number of k-cliques containing u, for every input node
  /// when the method ran a full counting pass (GC, L, LP); empty for HG
  /// and OPT. The dynamic engine seeds from it instead of recounting.
  std::vector<Count> node_scores;

  NodeId size() const { return set.size(); }
};

/// Resource limits shared by all solvers. Zero means unlimited. Exceeding
/// them yields Status::TimeBudgetExceeded / MemoryBudgetExceeded — the
/// paper's OOT/OOM table entries.
struct Budget {
  double time_ms = 0.0;
  int64_t memory_bytes = 0;
  /// Deterministic cap on branch/work nodes; 0 = unlimited. Unlike the
  /// wall-clock deadline, exceeding it aborts as a property of the instance
  /// — the same inputs abort (or don't) identically on every run at every
  /// thread count, which is what differential harnesses need from an abort
  /// mechanism. Honored by OPT's exact-MIS search and by the dynamic
  /// engine's per-update maintenance (DynamicOptions::update_budget);
  /// the polynomial-time heuristics ignore it.
  uint64_t max_branch_nodes = 0;
};

}  // namespace dkc

#endif  // DKC_CORE_TYPES_H_
