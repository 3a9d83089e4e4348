#include "clique/clique_graph.h"

#include <algorithm>

namespace dkc {

int64_t CliqueGraph::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(adjacency_.capacity() *
                                       sizeof(std::vector<CliqueId>));
  for (const auto& list : adjacency_) {
    bytes += static_cast<int64_t>(list.capacity() * sizeof(CliqueId));
  }
  return bytes;
}

StatusOr<CliqueGraph> CliqueGraph::Build(const CliqueStore& cliques,
                                         NodeId num_graph_nodes,
                                         MemoryBudget* budget,
                                         const Deadline& deadline,
                                         ThreadPool* pool) {
  CliqueGraph cg;
  const CliqueId num = cliques.size();
  cg.adjacency_.resize(num);

  // Inverted index: graph node -> cliques containing it. Two cliques are
  // adjacent iff they co-occur in some node's list.
  std::vector<std::vector<CliqueId>> at_node(num_graph_nodes);
  for (CliqueId c = 0; c < num; ++c) {
    for (NodeId u : cliques.Get(c)) at_node[u].push_back(c);
  }
  if (budget != nullptr &&
      !budget->Charge(static_cast<int64_t>(num) * cliques.k() *
                      sizeof(CliqueId))) {
    return Status::MemoryBudgetExceeded("clique-graph inverted index");
  }

  Count pairs_emitted = 0;
  for (NodeId u = 0; u < num_graph_nodes; ++u) {
    const auto& list = at_node[u];
    if (list.size() < 2) continue;
    if (deadline.Expired()) {
      return Status::TimeBudgetExceeded("clique-graph pair expansion");
    }
    for (size_t i = 0; i < list.size(); ++i) {
      for (size_t j = i + 1; j < list.size(); ++j) {
        cg.adjacency_[list[i]].push_back(list[j]);
        cg.adjacency_[list[j]].push_back(list[i]);
      }
    }
    const Count new_pairs = static_cast<Count>(list.size()) *
                            (list.size() - 1) / 2;
    pairs_emitted += new_pairs;
    if (budget != nullptr &&
        !budget->Charge(static_cast<int64_t>(new_pairs) * 2 *
                        sizeof(CliqueId))) {
      return Status::MemoryBudgetExceeded(
          "clique graph exceeds memory budget after " +
          std::to_string(pairs_emitted) + " shared-node pairs");
    }
  }

  // Cliques sharing >= 2 nodes were emitted multiple times; dedupe. This
  // pass can itself be huge (it touches every pair again), so it honors the
  // deadline too. Rows are independent, so they dedupe in parallel chunks;
  // the edge count is summed serially afterwards.
  const bool completed = ParallelChunks(
      pool, num, deadline, [] { return 0; },
      [&cg](size_t, CliqueId begin, CliqueId end, int*) {
        for (CliqueId c = begin; c < end; ++c) {
          auto& list = cg.adjacency_[c];
          std::sort(list.begin(), list.end());
          list.erase(std::unique(list.begin(), list.end()), list.end());
          list.shrink_to_fit();
        }
        return true;
      },
      [](int*) {});
  if (!completed) return Status::TimeBudgetExceeded("clique-graph dedup");
  for (CliqueId c = 0; c < num; ++c) cg.num_edges_ += cg.adjacency_[c].size();
  cg.num_edges_ /= 2;
  return cg;
}

}  // namespace dkc
