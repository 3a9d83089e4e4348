// OPT — the exact baseline: materialize every k-clique, build the clique
// graph (Definition 2), and solve exact maximum independent set on it.
// The paper's Section VI uses this (with the Akiba–Iwata VC solver [42]) to
// calibrate solution quality; it goes OOT/OOM beyond toy graphs, which is
// precisely the point of Tables II-IV.

#ifndef DKC_CORE_OPT_SOLVER_H_
#define DKC_CORE_OPT_SOLVER_H_

#include "core/types.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "util/status.h"

namespace dkc {

struct OptOptions {
  int k = 3;
  /// When non-null, orients the listing DAG with this precomputed order
  /// instead of recomputing the degeneracy order (preprocessing plumbing;
  /// see BasicOptions::orientation). Must outlive the call.
  const Ordering* orientation = nullptr;
  /// budget.max_branch_nodes caps the exact-MIS branch nodes; see Budget.
  Budget budget;
  /// Optional pool: parallel clique enumeration (deterministic ordered
  /// reduction), parallel clique-graph dedup, and parallel per-component
  /// exact-MIS solves. The solution is byte-identical at any thread count.
  ThreadPool* pool = nullptr;
};

/// Exact maximum disjoint k-clique set. OOT/OOM via Status on budget
/// exhaustion (expected on anything that is not small).
StatusOr<SolveResult> SolveOpt(const Graph& g, const OptOptions& options);

}  // namespace dkc

#endif  // DKC_CORE_OPT_SOLVER_H_
