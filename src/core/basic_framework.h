// Algorithm 1 — the basic framework ("HG" in the paper's experiments).
//
// Orient the graph along a total ordering, visit nodes in ascending order,
// and for each still-valid node u grab the *first* (k-1)-clique found inside
// the valid part of N+(u); the clique's nodes are then removed. Never lists
// all cliques, never stores any: O(m + n) residual memory and the fastest
// wall-clock of all methods, at the price of solution quality (Table II).

#ifndef DKC_CORE_BASIC_FRAMEWORK_H_
#define DKC_CORE_BASIC_FRAMEWORK_H_

#include "core/types.h"
#include "graph/dag.h"
#include "util/status.h"
#include "util/timer.h"

namespace dkc {

/// Which total node ordering Algorithm 1 orients the DAG with.
enum class NodeOrderKind {
  kIdentity,    // node-id order (the paper's running example, Fig. 4)
  kDegree,      // ascending degree
  kDegeneracy,  // core ordering — the default, as in the k-clique
                // listing literature the framework builds on
};

struct BasicOptions {
  int k = 3;
  NodeOrderKind order = NodeOrderKind::kDegeneracy;
  /// When non-null, orients the DAG with this precomputed total order
  /// instead of computing one from `order` — how the Solve() facade keeps a
  /// preprocessed run's sweep order identical to the unpruned graph's.
  /// Must order exactly g.num_nodes() nodes and outlive the call.
  const Ordering* orientation = nullptr;
  Budget budget;
};

/// Runs Algorithm 1 on `g`. Returns InvalidArgument for k < 3 and
/// TimeBudgetExceeded (OOT) when the budget expires mid-run.
StatusOr<SolveResult> SolveBasic(const Graph& g, const BasicOptions& options);

}  // namespace dkc

#endif  // DKC_CORE_BASIC_FRAMEWORK_H_
