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

namespace {

// The one packing builder behind both entry points: merges `prev` with the
// slots `for_each_touched(f)` passes to `f`, ascending and unique.
template <typename ForEachTouched>
std::shared_ptr<const SolutionPacking> MergePacking(
    const SolutionPacking& prev, const SolutionState& state,
    ForEachTouched&& for_each_touched) {
  constexpr uint32_t kUnshifted = UINT32_MAX;
  auto next = std::make_shared<SolutionPacking>(state.k());
  next->solution_version = state.solution_version();
  const size_t groups = state.solution_size();
  next->solution.Reserve(groups);
  next->group_scores.reserve(groups);
  next->group_slot.reserve(groups);

  // One merge over prev's groups and the touched slots, both ascending by
  // slot: runs of untouched groups are copied in bulk, and touched slots
  // drop their old group and, when live, are read afresh.
  const std::vector<uint32_t>& prev_slot = prev.group_slot;
  const auto prev_groups = static_cast<uint32_t>(prev_slot.size());
  uint32_t g = 0;                      // next group of prev to merge
  uint32_t first_shift = kUnshifted;   // first group id unlike prev's
  std::vector<uint32_t> dropped;       // groups of prev whose slot changed
  const auto copy_until = [&](uint32_t end) {
    if (g == end) return;
    next->solution.AddRange(prev.solution, g, end);
    next->group_scores.insert(next->group_scores.end(),
                              prev.group_scores.begin() + g,
                              prev.group_scores.begin() + end);
    next->group_slot.insert(next->group_slot.end(), prev_slot.begin() + g,
                            prev_slot.begin() + end);
    g = end;
  };
  for_each_touched([&](uint32_t slot) {
    copy_until(static_cast<uint32_t>(
        std::lower_bound(prev_slot.begin() + g, prev_slot.end(), slot) -
        prev_slot.begin()));
    const auto at = static_cast<uint32_t>(next->group_slot.size());
    const bool was_group = g < prev_groups && prev_slot[g] == slot;
    if (was_group) dropped.push_back(g++);
    const bool live = state.SlotAlive(slot);
    if (live) {
      const auto nodes = state.SlotNodes(slot);
      next->solution.Add(nodes);
      next->group_scores.push_back(CliqueScoreOf(nodes, state.node_scores()));
      next->group_slot.push_back(slot);
    }
    if ((was_group || live) && first_shift == kUnshifted) first_shift = at;
  });
  copy_until(prev_groups);

  // node_to_group: prev's map with the dropped groups' nodes cleared, then
  // rewritten from the first shifted group on (every group before it kept
  // its id and its nodes).
  std::vector<uint32_t>& node_to_group = next->node_to_group;
  node_to_group.reserve(state.graph().num_nodes());
  node_to_group.assign(prev.node_to_group.begin(), prev.node_to_group.end());
  node_to_group.resize(state.graph().num_nodes(), SolutionView::kNoGroup);
  for (const uint32_t d : dropped) {
    for (NodeId u : prev.solution.Get(d)) {
      node_to_group[u] = SolutionView::kNoGroup;
    }
  }
  if (first_shift != kUnshifted) {
    for (uint32_t h = first_shift; h < next->solution.size(); ++h) {
      for (NodeId u : next->solution.Get(h)) node_to_group[u] = h;
    }
  }
  return next;
}

}  // namespace

std::shared_ptr<const SolutionPacking> PatchSolutionPacking(
    const SolutionPacking& prev, const SolutionState& state,
    std::span<const uint32_t> touched) {
  return MergePacking(prev, state, [touched](auto&& visit) {
    for (const uint32_t slot : touched) visit(slot);
  });
}

std::shared_ptr<const SolutionPacking> BuildSolutionPacking(
    const SolutionState& state) {
  // Every live slot is touched, walked once straight off the slot table.
  return MergePacking(SolutionPacking(state.k()), state,
                      [&state](auto&& visit) { state.ForEachSlot(visit); });
}

std::shared_ptr<const SolutionView> BuildSolutionView(
    const SolutionState& state, uint64_t epoch, uint64_t updates_applied) {
  return std::make_shared<const SolutionView>(epoch, updates_applied,
                                              BuildSolutionPacking(state));
}

}  // namespace dkc
