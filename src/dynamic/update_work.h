// The dynamic engine's deterministic per-update work meter.
//
// Charges depend only on the update history, never on scheduling: one unit
// per swap pop, one per candidate rebuild, and one per branch node the
// rebuild's subset-enumeration DFS enters (the Enter hook of
// clique/neighborhood.h's charged traversal). Exhaustion of the work cap
// cuts maintenance at deterministic boundaries only — the swap loop at pop
// boundaries, a rebuild's enumeration at a DFS branch boundary — so the
// abort outcome is a property of the update stream, byte-identical at
// every thread count.
//
// The meter bounds growth work only. A delete that breaks a solution
// clique whose candidate set is incomplete (a cut rebuild) or owed a
// rebuild settles that set unmetered before repacking, so the solution
// stays maximal; a single epoch can therefore run past the cap.
//
// The wall-clock deadline is the schedule-dependent escape hatch for
// latency-bound deployments; it is consulted at pop boundaries only (the
// DFS never reads the clock).

#ifndef DKC_DYNAMIC_UPDATE_WORK_H_
#define DKC_DYNAMIC_UPDATE_WORK_H_

#include <cstdint>

#include "core/types.h"
#include "util/timer.h"

namespace dkc {

struct UpdateWork {
  static UpdateWork FromBudget(const Budget& budget) {
    UpdateWork work;
    if (budget.time_ms > 0) {
      work.deadline = Deadline::AfterMillis(budget.time_ms);
    }
    work.max_work = budget.max_branch_nodes;
    return work;
  }

  Deadline deadline = Deadline::Unlimited();
  uint64_t max_work = 0;  // 0 = unlimited
  uint64_t work = 0;      // units charged so far
  bool aborted = false;   // latched by Exhausted()

  /// Rebuild enumerations this update that the work cap truncated
  /// mid-enumeration (at a DFS branch boundary). A cut rebuild leaves the
  /// slot's candidate set *valid but possibly incomplete* — every indexed
  /// candidate is real, but growth opportunities may be missing until the
  /// slot is next rebuilt, and the slot is flagged incomplete until then.
  /// Deterministic: a property of the update stream.
  uint64_t rebuild_cuts = 0;

  void Charge(uint64_t units) { work += units; }

  /// True once the budget is spent; latches `aborted`. The swap loop
  /// consults it at pop boundaries; rebuild enumerations consult the work
  /// cap (not the deadline) per DFS branch — see update_work.h header.
  bool Exhausted() {
    if (aborted) return true;
    if ((max_work != 0 && work >= max_work) || deadline.Expired()) {
      aborted = true;
    }
    return aborted;
  }
};

}  // namespace dkc

#endif  // DKC_DYNAMIC_UPDATE_WORK_H_
