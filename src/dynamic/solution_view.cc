#include "dynamic/solution_view.h"

#include <algorithm>

#include "core/clique_score.h"
#include "dynamic/candidate_index.h"

namespace dkc {

std::vector<std::pair<Count, uint32_t>> SolutionView::TopK(size_t n) const {
  std::vector<std::pair<Count, uint32_t>> ranked;
  ranked.reserve(group_scores.size());
  for (uint32_t g = 0; g < group_scores.size(); ++g) {
    ranked.emplace_back(group_scores[g], g);
  }
  n = std::min(n, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + n, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  ranked.resize(n);
  return ranked;
}

bool SolutionView::Consistent(std::string* error) const {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (group_scores.size() != solution.size()) {
    return fail("group_scores size does not match solution size");
  }
  std::vector<uint32_t> derived(node_to_group.size(), kNoGroup);
  for (uint32_t g = 0; g < solution.size(); ++g) {
    for (NodeId u : solution.Get(g)) {
      if (u >= node_to_group.size()) return fail("clique node out of range");
      if (derived[u] != kNoGroup) return fail("node in two groups");
      derived[u] = g;
    }
  }
  if (derived != node_to_group) {
    return fail("node_to_group disagrees with the clique store");
  }
  return true;
}

std::shared_ptr<const SolutionPacking> BuildSolutionPacking(
    const SolutionState& state) {
  auto packing = std::make_shared<SolutionPacking>(state.k());
  packing->solution_version = state.solution_version();
  packing->solution = state.Snapshot();
  packing->node_to_group.assign(state.graph().num_nodes(),
                                SolutionView::kNoGroup);
  packing->group_scores.reserve(packing->solution.size());
  for (uint32_t g = 0; g < packing->solution.size(); ++g) {
    const auto nodes = packing->solution.Get(g);
    for (NodeId u : nodes) packing->node_to_group[u] = g;
    packing->group_scores.push_back(
        CliqueScoreOf(nodes, state.node_scores()));
  }
  return packing;
}

std::shared_ptr<const SolutionView> BuildSolutionView(
    const SolutionState& state, uint64_t epoch, uint64_t updates_applied) {
  return std::make_shared<const SolutionView>(epoch, updates_applied,
                                              BuildSolutionPacking(state));
}

}  // namespace dkc
