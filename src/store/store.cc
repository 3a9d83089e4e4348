#include "store/store.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "io/atomic_file.h"
#include "io/fault.h"

namespace dkc {
namespace {

std::string RetainedName(const std::string& snapshot_path, uint64_t seq) {
  return snapshot_path + "." + std::to_string(seq);
}

}  // namespace

std::vector<uint64_t> DurableStore::ScanRetained(
    const std::string& snapshot_path) {
  namespace fs = std::filesystem;
  const fs::path path(snapshot_path);
  const fs::path dir =
      path.parent_path().empty() ? fs::path(".") : path.parent_path();
  const std::string prefix = path.filename().string() + ".";
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string suffix = name.substr(prefix.size());
    if (suffix.find_first_not_of("0123456789") != std::string::npos) continue;
    seqs.push_back(std::stoull(suffix));
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

StatusOr<DynamicSolver> DurableStore::LoadPointInTime(
    const std::string& snapshot_file, const DynamicOptions& dynamic) {
  auto loaded = ReadSnapshot(snapshot_file);
  if (!loaded.ok()) return loaded.status();
  DynamicOptions options = dynamic;
  options.k = loaded->meta.k;
  return DynamicSolver::FromState(std::move(loaded->state), options);
}

StatusOr<DurableStore> DurableStore::Create(const Graph& g,
                                            const std::string& snapshot_path,
                                            const std::string& wal_path,
                                            const StoreOptions& options) {
  auto solver = DynamicSolver::Build(g, options.dynamic);
  if (!solver.ok()) return solver.status();
  DKC_RETURN_IF_ERROR(WriteSnapshot(solver->state(), 0, snapshot_path));
  // Atomic reset rather than truncate: a stale WAL from a previous store
  // at this path must not replay into the fresh one — and likewise any
  // retained snapshot rotations of that previous store must not be
  // mistaken for this one's history.
  for (uint64_t seq : ScanRetained(snapshot_path)) {
    fio::Unlink(FaultSite::kStoreUnlink,
                RetainedName(snapshot_path, seq).c_str());
  }
  DKC_RETURN_IF_ERROR(AtomicWriteFile(wal_path, ""));
  auto wal = WalWriter::Open(wal_path);
  if (!wal.ok()) return wal.status();
  return DurableStore(std::move(solver).value(), std::move(wal).value(),
                      snapshot_path, wal_path, options);
}

StatusOr<DurableStore> DurableStore::Open(const std::string& snapshot_path,
                                          const std::string& wal_path,
                                          const StoreOptions& options) {
  auto loaded = ReadSnapshot(snapshot_path);
  if (!loaded.ok()) return loaded.status();

  auto scan = ReadWal(wal_path);
  if (!scan.ok()) return scan.status();
  if (scan->torn_tail || scan->torn_group) {
    // Both cuts land on an epoch boundary: a torn final write, or an
    // epoch whose closing record never hit the disk — either way
    // valid_bytes is the last durable epoch boundary.
    DKC_RETURN_IF_ERROR(TruncateWal(wal_path, scan->valid_bytes));
  }

  DynamicOptions dynamic = options.dynamic;
  dynamic.k = loaded->meta.k;
  auto solver = DynamicSolver::FromState(std::move(loaded->state), dynamic);
  if (!solver.ok()) return solver.status();

  // Replay the tail past the snapshot, epoch by epoch, each as one engine
  // ApplyBatch exactly as the original run applied it, so recovery is
  // byte-identical. Epochs at or before applied_seq are already reflected
  // (a crash can land between the snapshot publish and the WAL compaction
  // of a checkpoint); anything else must chain consecutively from
  // applied_seq. Checkpoints only land at epoch boundaries, so an epoch
  // straddling the snapshot seq is corruption.
  uint64_t seq = loaded->meta.applied_seq;
  uint64_t replayed = 0;
  std::vector<UpdateOp> ops;
  for (const WalSegment& seg : scan->segments) {
    const WalRecord& first = scan->records[seg.first];
    const WalRecord& last = scan->records[seg.first + seg.count - 1];
    if (last.seq <= seq) continue;
    if (first.seq <= seq) {
      return Status::Corruption(
          "WAL '" + wal_path + "' epoch [" + std::to_string(first.seq) +
          ", " + std::to_string(last.seq) +
          "] straddles the snapshot boundary " + std::to_string(seq));
    }
    if (first.seq != seq + 1) {
      return Status::Corruption(
          "WAL '" + wal_path + "' starts at seq " + std::to_string(first.seq) +
          " but snapshot covers through " + std::to_string(seq));
    }
    ops.clear();
    for (size_t j = 0; j < seg.count; ++j) {
      const WalRecord& rec = scan->records[seg.first + j];
      ops.push_back(UpdateOp{rec.is_insert, {rec.u, rec.v}});
    }
    const Status applied = solver->ApplyBatch(ops);
    if (!applied.ok()) {
      // ApplyBatch validates before logging, so every logged epoch must
      // apply cleanly to the deterministic replay state.
      return Status::Corruption("WAL '" + wal_path + "' epoch at seq " +
                                std::to_string(first.seq) +
                                " rejected on replay: " + applied.ToString());
    }
    seq = last.seq;
    replayed += seg.count;
  }
  // One publish for the whole replay: readers of the recovered store see
  // the recovered state, not the snapshot's.
  if (replayed > 0) solver->PublishView();

  auto wal = WalWriter::Open(wal_path);
  if (!wal.ok()) return wal.status();
  DurableStore store(std::move(solver).value(), std::move(wal).value(),
                     snapshot_path, wal_path, options);
  store.applied_seq_ = seq;
  store.checkpoint_seq_ = loaded->meta.applied_seq;
  store.replayed_records_ = replayed;
  store.recovered_torn_tail_ = scan->torn_tail;
  store.recovered_torn_group_ = scan->torn_group;
  store.retained_snapshots_ = ScanRetained(snapshot_path);
  return store;
}

Status DurableStore::Seal(Status status) {
  if (seal_.ok()) seal_ = status;
  return status;
}

Status DurableStore::ApplyBatch(std::span<const UpdateOp> ops) {
  if (ops.empty()) return Status::OK();
  if (sealed()) return seal_;
  // Validate the whole epoch before logging — atomic reject, nothing
  // hits the WAL; the log must contain only epochs that replay cleanly.
  DKC_RETURN_IF_ERROR(solver_->ValidateBatch(ops));

  std::vector<WalRecord> recs(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    recs[i].seq = applied_seq_ + 1 + i;
    recs[i].is_insert = ops[i].is_insert;
    recs[i].u = ops[i].edge.first;
    recs[i].v = ops[i].edge.second;
  }
  // The durability point: the whole epoch in one buffered write, one
  // fsync. Past validation, every failure seals: a failed append/sync
  // leaves the durable boundary unknown (see the header's syscall-failure
  // policy).
  const Status logged = wal_->AppendGroup(recs, options_.sync_every_append);
  if (!logged.ok()) return Seal(logged);
  if (options_.after_group_flush) options_.after_group_flush(recs.back().seq);

  const Status applied = solver_->ApplyBatch(ops);
  if (!applied.ok()) {
    return Seal(Status::Internal("validated batch rejected by engine: " +
                                 applied.ToString()));
  }
  applied_seq_ = recs.back().seq;
  solver_->PublishView();  // readers see every acknowledged epoch

  if (options_.checkpoint_every > 0 &&
      applied_seq_ - checkpoint_seq_ >= options_.checkpoint_every) {
    // The epoch itself is durable and applied, so it stays acknowledged
    // no matter how the auto-checkpoint fares: a checkpoint I/O failure
    // seals the store (visible via sealed()) without retracting the ack —
    // returning the error here would leave the caller unable to tell an
    // unacknowledged epoch from an acknowledged one that merely failed to
    // checkpoint.
    (void)Checkpoint();
  }
  return Status::OK();
}

Status DurableStore::Checkpoint() {
  if (sealed()) return seal_;
  // Retention: hard-link the outgoing snapshot aside under the seq it
  // covers BEFORE the publish replaces the primary path — the atomic
  // rename swaps the inode out, so the link keeps the old bytes, and a
  // crash anywhere in this sequence still leaves a complete snapshot at
  // snapshot_path_. Skipped when nothing new would be published (the
  // retained copy would duplicate the incoming live snapshot).
  if (options_.keep_snapshots > 1 && checkpoint_seq_ < applied_seq_) {
    if (!std::binary_search(retained_snapshots_.begin(),
                            retained_snapshots_.end(), checkpoint_seq_)) {
      const std::string aside = RetainedName(snapshot_path_, checkpoint_seq_);
      // untracked leftover from a crash
      fio::Unlink(FaultSite::kStoreUnlink, aside.c_str());
      if (fio::Link(FaultSite::kStoreLink, snapshot_path_.c_str(),
                    aside.c_str()) != 0) {
        return Seal(Status::IOError("link '" + snapshot_path_ + "' -> '" +
                                    aside + "': " + std::strerror(errno)));
      }
      // checkpoint_seq_ only grows, so appending keeps the list sorted.
      retained_snapshots_.push_back(checkpoint_seq_);
    }
  }
  const Status published =
      WriteSnapshot(solver_->state(), applied_seq_, snapshot_path_);
  if (!published.ok()) return Seal(published);
  // The snapshot now covers every logged record; compact the WAL. Crash
  // before this point: Open skips the covered records by seq.
  wal_.reset();  // close before replacing the inode
  const Status compacted = AtomicWriteFile(wal_path_, "");
  if (!compacted.ok()) return Seal(compacted);
  auto wal = WalWriter::Open(wal_path_);
  if (!wal.ok()) return Seal(wal.status());
  wal_ = std::move(wal).value();
  checkpoint_seq_ = applied_seq_;
  ++checkpoints_taken_;
  // Enforce the retention window (also shrinks history when a store is
  // reopened with a smaller keep_snapshots). Best-effort like the rest of
  // retention pruning: a failed unlink leaves a stale rotation behind, it
  // does not un-checkpoint the store.
  const size_t keep = options_.keep_snapshots > 1
                          ? static_cast<size_t>(options_.keep_snapshots) - 1
                          : 0;
  while (retained_snapshots_.size() > keep) {
    fio::Unlink(
        FaultSite::kStoreUnlink,
        RetainedName(snapshot_path_, retained_snapshots_.front()).c_str());
    retained_snapshots_.erase(retained_snapshots_.begin());
  }
  return Status::OK();
}

Status DurableStore::Reopen() {
  if (!sealed()) {
    return Status::InvalidArgument("Reopen on a store that is not sealed");
  }
  // Close the writer first: a poisoned writer can still hold torn bytes in
  // its stdio buffer, and the fclose flushes them to disk where the scan
  // below can see (and cut) them.
  wal_.reset();
  auto scan = ReadWal(wal_path_);
  if (!scan.ok()) return scan.status();
  // Acknowledged-boundary cut: a record past applied_seq_ can be durable
  // without ever having been acknowledged — a failed sync after the
  // append landed, or an engine refusal after a successful sync. No
  // caller was told it committed, so it must not replay.
  uint64_t keep = 0;
  uint64_t bytes = 0;
  for (const WalSegment& seg : scan->segments) {
    bytes += seg.count * kWalRecordBytes;
    if (scan->records[seg.first + seg.count - 1].seq > applied_seq_) break;
    keep = bytes;
  }
  DKC_RETURN_IF_ERROR(TruncateWal(wal_path_, keep));
  auto reopened = Open(snapshot_path_, wal_path_, options_);
  if (!reopened.ok()) return reopened.status();
  if (options_.sync_every_append && reopened->applied_seq_ != applied_seq_) {
    // With per-append fsync every acknowledged record is durable, so
    // recovery must land exactly on the acknowledged boundary; anything
    // else would silently rewind history. (Without fsync-per-append the
    // durability contract already waives acknowledged-survive, and a
    // shorter recovered prefix is the documented trade.)
    return Status::Corruption(
        "Reopen recovered seq " + std::to_string(reopened->applied_seq_) +
        " but " + std::to_string(applied_seq_) + " was acknowledged");
  }
  solver_.reset();
  solver_.emplace(std::move(*reopened->solver_));
  wal_ = std::move(*reopened->wal_);
  retained_snapshots_ = std::move(reopened->retained_snapshots_);
  applied_seq_ = reopened->applied_seq_;
  checkpoint_seq_ = reopened->checkpoint_seq_;
  replayed_records_ = reopened->replayed_records_;
  recovered_torn_tail_ = reopened->recovered_torn_tail_;
  recovered_torn_group_ = reopened->recovered_torn_group_;
  seal_ = Status::OK();
  return Status::OK();
}

Status RetryReopen(DurableStore* store, const ReopenRetryOptions& options) {
  if (options.max_attempts <= 0) {
    return Status::InvalidArgument("RetryReopen needs max_attempts >= 1");
  }
  const std::function<Status()> reopen =
      options.reopen ? options.reopen : [store] { return store->Reopen(); };
  uint64_t backoff = options.initial_backoff_ms;
  Status last = Status::OK();
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (options.sleep_ms) {
        options.sleep_ms(backoff);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      backoff = std::min(backoff * 2, options.max_backoff_ms);
    }
    last = reopen();
    if (last.ok()) return last;
  }
  return last;
}

}  // namespace dkc
