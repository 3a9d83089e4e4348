#include "dynamic/swap.h"

#include <algorithm>

namespace dkc {

std::vector<std::vector<NodeId>> PackDisjointCandidates(
    const SolutionState& state, uint32_t slot) {
  auto candidates = state.CandidatesOf(slot);
  // Ascending score; stable, so ties go to registration order.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const SolutionState::CandidateView& a,
                      const SolutionState::CandidateView& b) {
                     return a.score < b.score;
                   });
  std::vector<std::vector<NodeId>> chosen;
  std::vector<NodeId> taken;  // nodes consumed by chosen candidates
  for (auto& cand : candidates) {
    bool disjoint = true;
    for (NodeId u : cand.nodes) {
      if (std::find(taken.begin(), taken.end(), u) != taken.end()) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) continue;
    taken.insert(taken.end(), cand.nodes.begin(), cand.nodes.end());
    chosen.push_back(std::move(cand.nodes));
  }
  return chosen;
}

std::vector<uint32_t> StageReplacement(
    SolutionState* state, uint32_t slot,
    const std::vector<std::vector<NodeId>>& replacement) {
  std::vector<NodeId> freed(state->SlotNodes(slot).begin(),
                            state->SlotNodes(slot).end());
  state->RemoveSolutionClique(slot);

  std::vector<uint32_t> added;
  added.reserve(replacement.size());
  for (const auto& nodes : replacement) {
    added.push_back(state->AddSolutionClique(nodes));
  }

  // Cliques needing a fresh candidate set (Algorithm 5 on their B): the
  // added cliques, then every clique adjacent to a node of the removed
  // clique that no replacement consumed — those nodes are free now, so
  // their neighbors' cliques may have gained candidates.
  std::vector<uint32_t> to_rebuild = added;
  std::vector<uint32_t> affected;
  for (NodeId f : freed) {
    if (!state->IsFree(f)) continue;
    for (NodeId w : state->graph().Neighbors(f)) {
      const uint32_t s = state->CliqueOf(w);
      if (s != SolutionState::kNoClique) affected.push_back(s);
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (uint32_t s : affected) {
    if (std::find(added.begin(), added.end(), s) == added.end()) {
      to_rebuild.push_back(s);
    }
  }
  return to_rebuild;
}

void CommitReplacement(SolutionState* state, uint32_t slot,
                       const std::vector<std::vector<NodeId>>& replacement,
                       SwapQueue* queue, UpdateWork* budget) {
  const std::vector<uint32_t> to_rebuild =
      StageReplacement(state, slot, replacement);

  // The rebuilds charge the meter themselves (one unit each plus one per
  // DFS branch entered) and may be truncated by its deterministic cap —
  // see RebuildCandidatesFor.
  std::vector<size_t> counts;
  state->RebuildCandidatesForMany(to_rebuild, &counts, budget);
  for (size_t i = 0; i < to_rebuild.size(); ++i) {
    if (queue != nullptr && counts[i] > 0) {
      queue->push_back(state->RefOf(to_rebuild[i]));
    }
  }
}

SwapStats TrySwapLoop(SolutionState* state, SwapQueue* queue,
                      UpdateWork* budget) {
  SwapStats stats;
  while (!queue->empty()) {
    if (budget != nullptr && budget->Exhausted()) {
      // Pop-boundary abort: everything committed so far stays, the
      // remaining entries were only growth opportunities.
      stats.aborted = true;
      queue->clear();
      break;
    }
    const SolutionState::SlotRef ref = queue->front();
    queue->pop_front();
    if (!state->RefValid(ref)) continue;  // swapped away since enqueue
    ++stats.pops;
    if (budget != nullptr) budget->Charge(1);
    auto replacement = PackDisjointCandidates(*state, ref.slot);
    if (replacement.size() <= 1) continue;  // no net gain: keep C
    ++stats.commits;
    stats.cliques_gained += replacement.size() - 1;
    CommitReplacement(state, ref.slot, replacement, queue, budget);
  }
  return stats;
}

}  // namespace dkc
