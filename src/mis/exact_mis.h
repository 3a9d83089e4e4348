// Exact maximum independent set by branch-and-reduce.
//
// Stands in for the Akiba–Iwata vertex-cover solver [42] the paper uses for
// its OPT baseline: same role (exact optimum on the clique graph), same
// overall architecture (reductions + branching + bounds), deliberately
// smaller reduction set. The solver is budgeted: it answers OOT via Status
// when the deadline expires, which is how the paper's Tables II/IV report
// OPT on anything but tiny graphs.
//
// Techniques:
//   * connected-component decomposition before branching: each component is
//     solved independently (in chunks of components on ParallelChunks,
//     parallel across a pool when one is given — the per-component
//     searches share nothing but the branch budget) and the results are
//     merged in component order, so the answer is byte-identical at any
//     thread count;
//   * per-component upper bounds supplied by the caller (who can see
//     structure the solver cannot, e.g. the k-clique packing bound), fixed
//     before any component is solved — deliberately *not* tightened by
//     previously solved components, which would impose a serial order;
//   * a free-vertex list maintained incrementally under branching, so
//     pivot selection, the reductions and the clique-cover bound scan only
//     the vertices still free instead of all n per branch node;
//   * reductions: isolated vertices (take), degree-1 pendants (take),
//     dominance (exclude u when an adjacent v has N[v] ⊆ N[u]),
//     applied exhaustively at every branch node;
//   * lower bound seeded with the greedy min-degree solution;
//   * upper bound: |chosen| + greedy clique cover of the free subgraph (an
//     independent set contains at most one vertex per cover clique);
//   * branching: max-degree free vertex (smallest id on ties),
//     include-branch first;
//   * an optional *branch budget*: a cap on total branch nodes across all
//     components. Unlike a wall-clock deadline, hitting it is a
//     deterministic property of the instance — the same inputs abort (or
//     don't) identically on every run at every thread count, which is what
//     a differential harness needs from an abort mechanism.

#ifndef DKC_MIS_EXACT_MIS_H_
#define DKC_MIS_EXACT_MIS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dkc {

struct ExactMisResult {
  std::vector<uint32_t> vertices;  // a maximum independent set
  uint64_t branch_nodes = 0;       // search-tree size, for tests/benches
  /// Free-list elements visited by pivot selection, the reduction passes
  /// and the cover bound — the quantity the free-vertex list keeps
  /// proportional to the *live* subproblem instead of n per branch node.
  uint64_t free_scan_steps = 0;
};

struct ExactMisParams {
  Deadline deadline = Deadline::Unlimited();

  /// A true upper bound on the MIS size, when the caller knows one (e.g.
  /// the clique-graph MIS is at most floor(participating nodes / k) for
  /// disjoint k-clique packing): the search stops the moment an incumbent
  /// of that size is found. Proving "no larger set exists" is exactly
  /// where branch-and-bound spends its time when the generic clique-cover
  /// bound is loose. Must be a true bound or the result may be suboptimal.
  uint32_t upper_bound = UINT32_MAX;

  /// Cap on total branch nodes across all components; 0 = unlimited.
  /// Exceeding it returns TimeBudgetExceeded, deterministically (see top).
  uint64_t max_branch_nodes = 0;

  /// Solve components concurrently when given. Results are byte-identical
  /// to the serial solve.
  ThreadPool* pool = nullptr;

  /// Optional per-component upper bound: called once per multi-vertex
  /// component (serially, before any solving) with the component's member
  /// vertex ids, ascending. The effective bound is
  /// min(upper_bound, component_bound(members)). Must be a true bound.
  std::function<uint32_t(std::span<const uint32_t>)> component_bound;
};

/// Computes a maximum independent set of the (symmetric, simple) adjacency
/// structure. Adjacency lists must be sorted ascending (the dominance
/// reduction binary-searches them). Returns Status::TimeBudgetExceeded
/// (OOT) if the deadline — or the branch budget — expires before the
/// search completes.
StatusOr<ExactMisResult> ExactMis(
    const std::vector<std::vector<uint32_t>>& adj,
    const ExactMisParams& params = {});

/// Legacy convenience overload.
StatusOr<ExactMisResult> ExactMis(
    const std::vector<std::vector<uint32_t>>& adj, const Deadline& deadline,
    uint32_t upper_bound = UINT32_MAX);

}  // namespace dkc

#endif  // DKC_MIS_EXACT_MIS_H_
