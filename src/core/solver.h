// Unified facade over the five methods of the paper's evaluation:
//   HG  — Algorithm 1, basic framework
//   GC  — Algorithm 2, clique-score order over stored cliques
//   L   — Algorithm 3 without score pruning
//   LP  — Algorithm 3 with score pruning (the paper's recommended method)
//   OPT — exact clique-graph + exact-MIS baseline
// This is the entry point examples and benches use; the per-algorithm
// headers remain available for fine-grained options.

#ifndef DKC_CORE_SOLVER_H_
#define DKC_CORE_SOLVER_H_

#include <string>

#include "core/types.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dkc {

enum class Method { kHG, kGC, kL, kLP, kOPT };

/// "HG", "GC", "L", "LP", "OPT" — the paper's labels.
const char* MethodName(Method method);

/// Parse a method label (case-insensitive). NotFound on unknown labels.
StatusOr<Method> ParseMethod(const std::string& name);

struct SolverOptions {
  int k = 3;
  Method method = Method::kLP;
  Budget budget;
  /// Honored by L/LP scoring + heap init, GC/OPT clique enumeration,
  /// OPT's clique-graph dedup and per-component exact-MIS solves, and the
  /// preprocessing peel; HG's sweep is serial. Solutions are byte-identical
  /// at any thread count (each parallel pass ends in a deterministic
  /// ordered reduction or an order-insensitive one).
  ThreadPool* pool = nullptr;
  /// Graph-shrinking preprocessing (graph/preprocess.h): run the solver on
  /// the (k-1)-core + triangle-support fixpoint of the input and report the
  /// solution back in original node ids. The pruned graph is oriented by
  /// the original degeneracy order restricted to the survivors, so every
  /// method's solution is byte-identical with this on or off — the
  /// differential harness asserts it. Accounting lands in
  /// SolveResult::preprocess.
  bool preprocess = true;
  /// With `preprocess`: recompute the degeneracy order on the pruned graph
  /// instead (denser kernels on heavily shrunk inputs). Solutions stay
  /// valid maximal disjoint k-clique sets but the byte-identity promise is
  /// waived.
  bool preprocess_reorder = false;
  /// Ignored; kept only so bench_e2e/dkc_e2e.cc compiles. Drop it when
  /// bench_e2e next changes.
  int partitions = 0;
};

/// Compute a disjoint k-clique set of `g` with the selected method.
StatusOr<SolveResult> Solve(const Graph& g, const SolverOptions& options);

}  // namespace dkc

#endif  // DKC_CORE_SOLVER_H_
