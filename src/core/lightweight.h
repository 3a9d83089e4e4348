// Algorithm 3 — the lightweight implementation ("L" without score pruning,
// "LP" with it).
//
// Produces the same greedy-by-clique-score selection as Algorithm 2 but
// without storing any cliques:
//   1. node scores s_n are computed by a counting pass (no storage);
//   2. nodes are ordered ascending by score; the graph is oriented into a
//      DAG along that order;
//   3. for every root u, FindMin extracts the *locally* minimum-score clique
//      inside the valid part of N+(u) into u's row of one flat n x k slab;
//      a global min-heap holds only (clique score, root rank) keys, one per
//      root, built with a single make_heap;
//   4. Calculation pops the global minimum; a stale root (a node of its
//      slab row was consumed since its key was pushed) gets a lazy FindMin
//      re-run that overwrites the row in place and pushes a new key.
//
// The score-driven pruning (LP) cuts FindMin branches whose running score
// sum already reaches the best local clique score found — the optimization
// the paper credits with up to an order of magnitude (Fig. 6, L vs LP).

#ifndef DKC_CORE_LIGHTWEIGHT_H_
#define DKC_CORE_LIGHTWEIGHT_H_

#include "core/types.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "util/status.h"

namespace dkc {

struct LightweightOptions {
  int k = 3;
  /// false => "L", true => "LP". Results are identical; only FindMin's
  /// search-tree size differs.
  bool enable_score_pruning = true;
  /// When non-null, orients the *counting* DAG (line 2) with this
  /// precomputed order instead of recomputing the degeneracy order — a
  /// speed knob only: node scores, and hence the score-ascending solve
  /// order and the solution, do not depend on it. Must outlive the call.
  const Ordering* orientation = nullptr;
  Budget budget;
  /// Optional pool for the two DAG builds, the scoring pass and HeapInit
  /// (the latter two "in parallel" in the paper's pseudocode).
  ThreadPool* pool = nullptr;
};

/// Runs Algorithm 3 on `g`.
StatusOr<SolveResult> SolveLightweight(const Graph& g,
                                       const LightweightOptions& options);

}  // namespace dkc

#endif  // DKC_CORE_LIGHTWEIGHT_H_
