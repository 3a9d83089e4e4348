// Graph-shrinking preprocessing for k-clique workloads.
//
// A node can participate in a disjoint k-clique solution only if it lies in
// at least one k-clique, and on the sparse real graphs the paper targets
// most nodes do not. One classical necessary condition prunes them without
// ever listing a clique: every node of a k-clique has k-1 co-members, so
// any node whose degree drops below k-1 can be peeled, cascading — the
// (k-1)-core. The survivors are compacted into a CSR with an
// ascending-order id remap and a back-mapping to original ids.
//
// The triangle-support rule (drop edges in fewer than k-2 triangles) is
// deliberately not applied: counting the supports costs several times the
// peel, and on WS, BA, ER and planted-partition graphs no solve got
// measurably faster from the edges it removed, even where it emptied the
// graph.
//
// Safety: a k-clique's nodes keep degree >= k-1 as long as the clique is
// intact, which it always is, so the peel never removes a node of any
// k-clique. The pruned graph is the induced subgraph on the survivors and
// contains *exactly* the k-cliques of the input.
//
// Determinism: the pruned graph is oriented by the ORIGINAL graph's
// degeneracy order restricted to the survivors (`orientation` below).
// Because the id remap is ascending and every k-clique survives with all
// its edges, each solver's DFS sees the same surviving branches in the
// same relative order as on the unpruned graph — removed nodes only ever
// contributed dead branches — so solutions are byte-identical with
// preprocessing on or off (the differential harness asserts exactly this
// for all five methods).

#ifndef DKC_GRAPH_PREPROCESS_H_
#define DKC_GRAPH_PREPROCESS_H_

#include <vector>

#include "graph/graph.h"
#include "graph/ordering.h"

namespace dkc {

/// Accounting, surfaced through SolveResult and the dkc CLI.
struct PreprocessStats {
  NodeId nodes_before = 0;
  Count edges_before = 0;
  NodeId nodes_after = 0;
  Count edges_after = 0;
  double elapsed_ms = 0.0;

  NodeId nodes_removed() const { return nodes_before - nodes_after; }
  Count edges_removed() const { return edges_before - edges_after; }
};

struct PreprocessResult {
  /// Compact CSR over the surviving nodes, ids remapped ascending (the
  /// remap is monotone: u < v in original ids iff their pruned ids are
  /// ordered the same way). Left empty, like the two maps, when the peel
  /// removed nothing (`unchanged()`): the input is then the pruned graph
  /// and the remap is the identity, so nothing is copied.
  Graph pruned;
  /// pruned id -> original id, ascending.
  std::vector<NodeId> new_to_old;
  /// original id -> pruned id, kInvalidNode for removed nodes.
  std::vector<NodeId> old_to_new;
  /// The total order to orient the pruned graph (or, when `unchanged()`,
  /// the input) with; see the header comment.
  Ordering orientation;
  PreprocessStats stats;

  bool unchanged() const { return stats.nodes_removed() == 0; }
};

/// Runs the (k-1)-core peel for k-clique workloads (k >= 3; smaller k
/// removes nothing).
PreprocessResult PreprocessForKCliques(const Graph& g, int k);

}  // namespace dkc

#endif  // DKC_GRAPH_PREPROCESS_H_
