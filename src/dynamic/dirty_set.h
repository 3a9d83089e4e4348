// DirtySet — ApplyBatch's per-epoch dirty-slot bookkeeping.
//
// A slot accumulates the union of the reasons an epoch's updates touched
// it; at the boundary it is rebuilt once and enqueued for swapping iff any
// recorded reason fires:
//
//   * want_any: enqueue iff the rebuilt slot has any candidate (the rule
//     of CommitReplacement and of the both-free insert's owner fan-out);
//   * probes:   enqueue iff some rebuilt candidate contains a probed edge
//     (the new edge of an insert with one free endpoint);
//   * neither ("rebuild only"): never enqueue (the direct-add insert —
//     its candidates are pairwise intersecting, so no swap can gain).
//
// Marks are kept in first-mark order; a slot that dies during staging is
// deactivated so a reused slot index never inherits a dead clique's marks.
// The set lives across epochs and Clear() resets only the slots the epoch
// touched, so a one-op epoch costs O(1) here, not O(|S|).

#ifndef DKC_DYNAMIC_DIRTY_SET_H_
#define DKC_DYNAMIC_DIRTY_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynamic/workload.h"

namespace dkc {

class DirtySet {
 public:
  /// An entry is live while index_ points at it; a slot that died (or
  /// died and was re-marked) leaves its old entry behind, dead.
  struct Mark {
    uint32_t slot = 0;
    bool want_any = false;
    std::vector<Edge> probes;
  };

  /// Each returns true iff this created the slot's first live mark (the
  /// per-update slots_marked accounting; repeats are the dedup win).
  bool MarkRebuild(uint32_t slot) {
    bool fresh = false;
    Touch(slot, &fresh);
    return fresh;
  }
  bool MarkWantAny(uint32_t slot) {
    bool fresh = false;
    Touch(slot, &fresh).want_any = true;
    return fresh;
  }
  bool MarkProbe(uint32_t slot, Edge edge) {
    bool fresh = false;
    Touch(slot, &fresh).probes.push_back(edge);
    return fresh;
  }

  /// The slot died during staging (its clique was removed); drop its
  /// marks so a reused slot index starts clean.
  void Deactivate(uint32_t slot) {
    if (slot < index_.size()) index_[slot] = 0;
  }

  /// True iff the slot currently carries a live mark — i.e. some earlier
  /// op of this epoch deferred a rebuild it still owes the slot.
  bool IsActive(uint32_t slot) const {
    return slot < index_.size() && index_[slot] != 0;
  }

  /// Appends the live slots to `slots` in first-mark order (re-marks after
  /// a death re-enter at their new position).
  void CollectActive(std::vector<uint32_t>* slots) const {
    for (size_t i = 0; i < used_; ++i) {
      if (index_[marks_[i].slot] == i + 1) slots->push_back(marks_[i].slot);
    }
  }

  /// The live mark of an active slot.
  const Mark& mark(uint32_t slot) const { return marks_[index_[slot] - 1]; }

  /// Forget the epoch's marks, touching only the slots it marked.
  void Clear() {
    for (size_t i = 0; i < used_; ++i) index_[marks_[i].slot] = 0;
    used_ = 0;
  }

 private:
  Mark& Touch(uint32_t slot, bool* fresh) {
    if (slot >= index_.size()) index_.resize(slot + 1, 0);
    *fresh = index_[slot] == 0;
    if (*fresh) {
      // Reuse an entry of an earlier epoch, keeping its probe buffer's
      // capacity.
      if (used_ == marks_.size()) marks_.emplace_back();
      Mark& mark = marks_[used_++];
      mark.slot = slot;
      mark.want_any = false;
      mark.probes.clear();
      index_[slot] = static_cast<uint32_t>(used_);
    }
    return marks_[index_[slot] - 1];
  }

  // Marks in first-mark order; entries [0, used_) belong to this epoch.
  std::vector<Mark> marks_;
  size_t used_ = 0;
  // Per slot: 1 + its live entry in marks_, or 0 if unmarked. Four bytes
  // per solution slot, so a tiny epoch touches little memory.
  std::vector<uint32_t> index_;
};

}  // namespace dkc

#endif  // DKC_DYNAMIC_DIRTY_SET_H_
