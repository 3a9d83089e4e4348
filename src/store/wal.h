// Write-ahead log of edge updates, the durability half of the store.
//
// The file is a sequence of fixed-size records:
//
//   [1] op: bit 0 = insert, bit 1 = the epoch continues (see WalOpBits)
//   [4] u  (u32)            [4] v (u32)
//   [8] seq (u64, strictly consecutive across the whole log)
//   [4] CRC-32 of the previous 17 bytes
//
// Every append is one epoch of updates: n records, the first n-1 with the
// "continues" bit set (op 2/3) and a closing record without it (op 0/1).
// The record type says where the epoch ends, as in LevelDB's log format,
// so there is no separate commit marker. A one-op epoch is a single
// closing record. The whole epoch is encoded into one buffer and written
// with one fwrite and (by default) one fsync before the in-memory engine
// applies it, so a crash loses at most work that was never acknowledged,
// and an epoch is either fully durable or entirely absent.
//
// Recovery semantics, modeled on classic WAL discipline:
//
//  * a *partial* record at EOF is a torn append — the crash cut the final
//    write short. The scan truncates it away and reports torn_tail; every
//    complete record before it is intact (per-record CRC) and replayed.
//  * complete records of an epoch with no closing record at EOF are a
//    torn group — the crash landed inside the epoch's write. They are
//    dropped and the log is truncated to the last closing record
//    (valid_bytes), so recovery lands exactly on an epoch boundary.
//  * a *complete* record with a bad CRC, an unknown op byte, or a
//    sequence-number gap is Corruption: appends are single writes to an
//    append-only file, so a short tail is the only state a crash can
//    produce — anything else is bit rot or tampering, and replaying past
//    it would silently fork the solution. Nothing is loaded. The seq
//    check also catches a record dropped from the middle of an epoch or
//    an epoch whose closing record is missing before the next epoch.
//  * the previous format's group frames (members followed by an op-4
//    commit marker) are refused as Corruption ("unknown record type 4").
//    Checkpoint such a store with the binary that wrote it before
//    upgrading; its bare records (op 0/1) are one-op epochs and replay
//    unchanged.

#ifndef DKC_STORE_WAL_H_
#define DKC_STORE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace dkc {

struct WalRecord {
  uint64_t seq = 0;
  bool is_insert = false;
  NodeId u = 0;
  NodeId v = 0;
};

/// Bits of a record's op byte; every other bit is reserved and a record
/// with one set is Corruption.
enum WalOpBits : uint8_t {
  kWalOpInsert = 1,     // clear = delete
  kWalOpContinues = 2,  // clear = this record closes its epoch
};

/// Bytes per encoded record (fixed-size format).
inline constexpr size_t kWalRecordBytes = 21;

/// Encode `recs` as one epoch: every record but the last with the
/// "continues" bit. This is exactly the byte sequence AppendGroup writes
/// (exposed for tests that fabricate torn, corrupt or truncated logs).
std::string EncodeWalGroup(std::span<const WalRecord> recs);

/// Appender. Not thread-safe; the store serializes access.
///
/// Failure policy (the fsyncgate rule): after ANY failed append, flush, or
/// fsync the writer is *poisoned* — every later AppendGroup/Sync returns
/// the original error without touching the file. A failed fsync may have
/// dropped dirty pages the kernel will never retry, and a short buffered
/// append leaves a torn epoch in the stdio buffer; in both cases a later
/// "successful" sync would acknowledge updates that are not durable. The
/// only way forward is to reopen the WAL (a fresh Open) and re-establish
/// the durable boundary by re-reading the file.
class WalWriter {
 public:
  /// Open `path` for appending (created if missing).
  static StatusOr<WalWriter> Open(const std::string& path);

  /// Append one epoch (see EncodeWalGroup) in a single buffered write,
  /// then — with `sync` — one fsync for the whole epoch. This is the
  /// store's durability point: N updates, one fsync. Empty input is a
  /// no-op.
  Status AppendGroup(std::span<const WalRecord> recs, bool sync = true);

  Status Sync();

  /// The first error, if any I/O on this writer has failed. While set,
  /// every mutation returns it (see class comment).
  const Status& poisoned() const { return poison_; }

  const std::string& path() const { return path_; }

 private:
  explicit WalWriter(std::FILE* file, std::string path)
      : file_(file, &std::fclose), path_(std::move(path)) {}

  /// Record the first failure and return it.
  Status Poison(Status status);

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  std::string path_;
  Status poison_ = Status::OK();
};

/// One replay unit of the log: the epoch of `count` records starting at
/// `records[first]`.
struct WalSegment {
  size_t first = 0;
  size_t count = 0;
};

struct WalReadResult {
  /// Update records in log order. Records of a torn epoch (no closing
  /// record) are *not* included.
  std::vector<WalRecord> records;
  /// Epochs over `records`, in log order.
  std::vector<WalSegment> segments;
  /// Byte length of the intact prefix (everything after is torn). Always
  /// an epoch boundary: it advances only past a closing record.
  uint64_t valid_bytes = 0;
  /// True iff a partial record at EOF was dropped.
  bool torn_tail = false;
  /// True iff complete records of an epoch with no closing record were
  /// dropped at EOF (a crash inside the epoch's write).
  bool torn_group = false;
};

/// Scan `path`. A missing file yields an empty result (a fresh store has
/// no WAL yet); one that exists but cannot be read (a directory, no read
/// permission) is IOError. A torn tail or torn group is reported, a
/// mid-file corruption returned as Corruption (see header comment).
StatusOr<WalReadResult> ReadWal(const std::string& path);

/// Truncate `path` to `valid_bytes` — recovery's torn-tail cut.
Status TruncateWal(const std::string& path, uint64_t valid_bytes);

}  // namespace dkc

#endif  // DKC_STORE_WAL_H_
