// DurableStore — the serving foundation: a DynamicSolver whose state
// survives the process.
//
// Durability contract:
//  * ApplyBatch is the only way in: validate the whole epoch → WAL append
//    (the epoch's records in one buffered write, one fsync) → engine
//    epoch apply → SolutionView publish. An acknowledged epoch is on disk
//    before it is visible in memory; a single update is a one-op epoch.
//    A crash anywhere inside the epoch's window (during the append, or
//    between the flush and the engine apply) recovers to the previous
//    epoch boundary: an epoch without its closing record never replays.
//  * Checkpoint = atomic snapshot publish (at the current seq), then WAL
//    compaction to empty. A crash between the two leaves WAL records the
//    snapshot already covers; recovery skips them by sequence number.
//  * Open = load snapshot, scan WAL (truncating a torn tail), replay the
//    epochs past the snapshot's seq through the engine — each as one
//    ApplyBatch — then publish the recovered state once. Because the
//    snapshot captures the engine state verbatim and every update is
//    deterministic, the recovered solver is byte-identical to the one
//    that never crashed — same solution, same candidate index, same
//    future tie-breaks (store_test pins this at injected kill points).
//    Deterministic replay presumes deterministic budgets: a wall-clock
//    update_budget.time_ms waives byte-identity (max_branch_nodes keeps
//    it).
//
// Corruption is never repaired silently: a bit-flipped snapshot section or
// WAL record fails Open with Corruption. Only a *torn tail* — the unique
// signature of a crash mid-append — is truncated away.
//
// Syscall-failure policy (the sealed/Reopen lifecycle):
//  * A *validation* failure (InvalidArgument/NotFound, or a batch that
//    fails ValidateBatch) is a clean refusal — nothing was logged, nothing
//    changed, the store keeps serving and accepting updates.
//  * Any *post-validation I/O error* — a failed WAL append/flush/fsync, a
//    failed snapshot publish or WAL compaction inside Checkpoint — SEALS
//    the store: the in-memory engine stays consistent and reads keep
//    working (solver(), published views), but every further
//    ApplyBatch/Checkpoint refuses with the sealing Status. Sealing is
//    deliberate: after e.g. a failed fsync the durable boundary on disk
//    is unknown (the kernel may have dropped the dirty pages), so
//    acknowledging anything more would risk silent loss.
//  * Reopen() is the only way out of sealed: it closes the writer, cuts
//    the WAL back to the *acknowledged* boundary (durable-but-unacked
//    records past applied_seq() were never acknowledged to any caller and
//    must not survive), and re-runs full crash recovery from disk. On
//    success the store is unsealed with state byte-identical to a
//    never-faulted run over the acknowledged prefix; on failure (fault
//    still present) it stays sealed and Reopen can be retried —
//    RetryReopen wraps that loop in capped exponential backoff.

#ifndef DKC_STORE_STORE_H_
#define DKC_STORE_STORE_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace dkc {

struct StoreOptions {
  /// Engine configuration. On Create, dynamic.k selects the solve; on
  /// Open, k comes from the snapshot and dynamic.k is overridden.
  DynamicOptions dynamic;
  /// Auto-checkpoint after this many applied updates (0 = manual only).
  /// Checkpoints land only at epoch boundaries, so a snapshot never
  /// straddles a WAL epoch.
  uint64_t checkpoint_every = 0;
  /// fsync the WAL on every epoch. Turning this off trades
  /// the acknowledged-updates-survive guarantee for throughput (recovery
  /// is still correct, it just replays a shorter intact prefix).
  bool sync_every_append = true;
  /// Crash-injection hook (tests/CI): called inside the commit window of
  /// ApplyBatch — after the epoch's WAL records are flushed, before the
  /// engine applies the epoch — with the epoch's last seq. Production
  /// leaves it empty.
  std::function<void(uint64_t)> after_group_flush;
  /// Total published snapshots retained, the live one included (min 1 =
  /// today's behaviour: only the live file). With N > 1, Checkpoint first
  /// hard-links the outgoing snapshot aside as "<snapshot_path>.<seq>"
  /// (the applied seq it covers — compaction-safe: every checkpoint also
  /// compacts the WAL, so a retained file is a complete point-in-time
  /// state needing no log) before publishing the new one, then prunes the
  /// oldest beyond N-1. The link-aside precedes the publish, so a crash at
  /// any point leaves a complete snapshot at the primary path.
  int keep_snapshots = 1;
};

class DurableStore {
 public:
  /// Bootstrap a new store: solve `g` statically (options.dynamic), write
  /// the initial snapshot at seq 0 and an empty WAL. Overwrites any
  /// existing files at the two paths.
  static StatusOr<DurableStore> Create(const Graph& g,
                                       const std::string& snapshot_path,
                                       const std::string& wal_path,
                                       const StoreOptions& options);

  /// Crash recovery: snapshot + WAL tail replay (see header comment).
  static StatusOr<DurableStore> Open(const std::string& snapshot_path,
                                     const std::string& wal_path,
                                     const StoreOptions& options);

  /// Log and apply one epoch of updates: the whole batch is validated
  /// first (rejected atomically with nothing logged if any op is invalid:
  /// InvalidArgument/NotFound), appended to the WAL with a single fsync,
  /// then applied through DynamicSolver::ApplyBatch and published as the
  /// solver's new SolutionView. One update is a one-op span. An empty
  /// batch is a no-op.
  Status ApplyBatch(std::span<const UpdateOp> ops);

  /// Snapshot now and compact the WAL. With keep_snapshots > 1 the
  /// outgoing snapshot is retained aside first (see StoreOptions).
  Status Checkpoint();

  /// True once a post-validation I/O error has sealed the store: reads
  /// keep working, every mutation refuses with seal_status() (see header
  /// comment).
  bool sealed() const { return !seal_.ok(); }
  /// The first sealing error (OK while unsealed).
  const Status& seal_status() const { return seal_; }

  /// The only exit from sealed: cut the WAL to the acknowledged boundary
  /// and re-run crash recovery from disk, re-arming ingest on success.
  /// InvalidArgument if the store is not sealed. On failure the store
  /// stays sealed (with the original sealing status) and Reopen may be
  /// retried once the fault clears.
  Status Reopen();

  /// Open a snapshot file — typically a retained "<snapshot_path>.<seq>"
  /// rotation — as a standalone point-in-time engine, without touching the
  /// live store or any WAL. `dynamic.k` is overridden by the snapshot's.
  static StatusOr<DynamicSolver> LoadPointInTime(
      const std::string& snapshot_file, const DynamicOptions& dynamic);

  const DynamicSolver& solver() const { return *solver_; }

  /// Sequence number of the last applied update (0 = none yet).
  uint64_t applied_seq() const { return applied_seq_; }
  /// applied_seq of the most recent snapshot.
  uint64_t checkpoint_seq() const { return checkpoint_seq_; }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }

  /// Recovery accounting from Open (zero after Create).
  uint64_t replayed_records() const { return replayed_records_; }
  bool recovered_torn_tail() const { return recovered_torn_tail_; }
  /// True iff Open dropped the records of an epoch with no closing record
  /// — the signature of a crash inside the epoch's write.
  bool recovered_torn_group() const { return recovered_torn_group_; }

  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& wal_path() const { return wal_path_; }

  /// Applied seqs of the retained point-in-time snapshots, ascending. The
  /// live snapshot_path file is not listed. Rediscovered by directory scan
  /// on Open; cleared (and the files deleted) by Create.
  const std::vector<uint64_t>& retained_snapshots() const {
    return retained_snapshots_;
  }

 private:
  DurableStore(DynamicSolver solver, WalWriter wal, std::string snapshot_path,
               std::string wal_path, const StoreOptions& options)
      : solver_(std::move(solver)),
        wal_(std::move(wal)),
        snapshot_path_(std::move(snapshot_path)),
        wal_path_(std::move(wal_path)),
        options_(options) {}

  /// "<snapshot_path>.<digits>" files next to the live snapshot, ascending
  /// by seq.
  static std::vector<uint64_t> ScanRetained(const std::string& snapshot_path);

  /// Record `status` as the sealing error (first one wins) and return it.
  Status Seal(Status status);

  std::optional<DynamicSolver> solver_;  // engaged for the object's lifetime
  std::optional<WalWriter> wal_;
  Status seal_ = Status::OK();
  std::vector<uint64_t> retained_snapshots_;
  std::string snapshot_path_;
  std::string wal_path_;
  StoreOptions options_;
  uint64_t applied_seq_ = 0;
  uint64_t checkpoint_seq_ = 0;
  uint64_t checkpoints_taken_ = 0;
  uint64_t replayed_records_ = 0;
  bool recovered_torn_tail_ = false;
  bool recovered_torn_group_ = false;
};

/// Policy for RetryReopen's backoff loop. The sleep is a seam so tests and
/// the serve drill can run the whole schedule on a fake clock.
struct ReopenRetryOptions {
  int max_attempts = 8;
  uint64_t initial_backoff_ms = 10;
  uint64_t max_backoff_ms = 1000;  // cap for the exponential doubling
  /// Sleep seam; empty = std::this_thread::sleep_for. Called with the
  /// backoff before every attempt after the first.
  std::function<void(uint64_t)> sleep_ms;
  /// Reopen seam; empty = store->Reopen(). Serve overrides this to take
  /// its reader-handshake lock around each attempt.
  std::function<Status()> reopen;
};

/// Retry `store->Reopen()` (or options.reopen) up to max_attempts times
/// with capped exponential backoff. OK as soon as one attempt unseals the
/// store; otherwise the last attempt's error.
Status RetryReopen(DurableStore* store, const ReopenRetryOptions& options);

}  // namespace dkc

#endif  // DKC_STORE_STORE_H_
