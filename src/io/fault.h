// Deterministic syscall fault injection — the seam between the store's I/O
// and the kernel.
//
// Every syscall the durable layer makes (open/write/fsync/close/rename/
// link/unlink/truncate and the stdio fopen/fwrite/fflush trio) goes through
// a `dkc::fio::` wrapper tagged with a FaultSite naming the call site. The
// seam is compiled into every build: each wrapper consults the
// process-global FaultInjector before touching the kernel. Disarmed, that
// is one uncontended mutex round-trip per wrapped syscall, noise next to
// the syscall itself.
//
// The injector is test-scoped and deterministic:
//
//  * Arm(rules) installs a schedule and zeroes all counters. Each FaultRule
//    matches a site (or any site), fires on the Nth matching hit, and fails
//    `fail_count` consecutive matching hits from there (0 = sticky until
//    Disarm). A failing hit either returns the rule's errno without calling
//    the kernel, or — for write/fwrite rules with `short_bytes` set —
//    performs a REAL partial write of that many bytes and reports the short
//    count, producing a genuine torn state on disk.
//  * While armed, every wrapper hit is recorded (site + global index), so a
//    randomized harness can first record a run's full syscall trace and
//    then replay the identical workload failing any single recorded hit —
//    any failing schedule is reproducible from (seed, hit index) alone.
//
// Disarmed (the default) the injector fails nothing and records nothing;
// only a test or `dkc serve --inject-fault` arms it.

#ifndef DKC_IO_FAULT_H_
#define DKC_IO_FAULT_H_

#include <sys/types.h>

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dkc {

/// Every wrapped syscall site, one tag per (function, call site) pair so a
/// schedule can target e.g. "the fsync inside WAL Sync" without also
/// hitting the snapshot publish's fsync.
enum class FaultSite : uint8_t {
  kAnySite = 0,  // rule wildcard — never passed by a wrapper
  // io/atomic_file.cc
  kAtomicOpen,
  kAtomicWrite,
  kAtomicFsync,
  kAtomicClose,
  kAtomicRename,
  kAtomicUnlink,
  kDirOpen,   // SyncParentDir: open(dir)
  kDirFsync,  // SyncParentDir: fsync(dirfd)
  // store/wal.cc
  kWalOpen,      // WalWriter::Open fopen
  kWalAppend,    // AppendGroup fwrite
  kWalFlush,     // Sync fflush
  kWalFsync,     // Sync fsync
  kWalReadOpen,  // ReadWal whole-file read (probe)
  kWalTruncate,  // TruncateWal truncate
  // store/snapshot.cc
  kSnapshotReadOpen,  // ReadSnapshot whole-file read (probe)
  // store/store.cc
  kStoreLink,    // Checkpoint retention hard-link
  kStoreUnlink,  // retained-snapshot prune / stale-rotation removal
};

/// Human-readable site tag ("wal_fsync"), used in traces, test output, and
/// the CLI --inject-fault syntax. Returns "?" for kAnySite.
const char* FaultSiteName(FaultSite site);

/// Inverse of FaultSiteName; false if `name` matches no site.
bool FaultSiteFromName(const std::string& name, FaultSite* site);

struct FaultRule {
  /// Site to match, or kAnySite to match every wrapper hit (used with
  /// `hit` as a global index by the schedule harness).
  FaultSite site = FaultSite::kAnySite;
  /// Fire on the Nth matching hit, 1-based.
  uint64_t hit = 1;
  /// Fail this many consecutive matching hits starting at `hit`; 0 means
  /// sticky — every matching hit from `hit` on fails until Disarm.
  uint64_t fail_count = 1;
  /// errno the wrapper reports (EIO, ENOSPC, EINTR, ...).
  int error = 5;  // EIO
  /// For write/fwrite sites: if != SIZE_MAX, the failing hit performs a
  /// real write of this many bytes and returns the short count instead of
  /// erroring — a genuine torn write. Ignored by non-write sites.
  size_t short_bytes = SIZE_MAX;
};

/// One recorded wrapper hit: which site, at which global hit index
/// (1-based, counted across all sites while armed).
struct FaultHit {
  FaultSite site = FaultSite::kAnySite;
  uint64_t index = 0;
};

/// Process-global injector, consulted by every fio wrapper. All methods are
/// thread-safe.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Install `rules` and reset all counters and the trace. An empty rule
  /// set is valid: armed-with-no-rules records the syscall trace of a run
  /// without failing anything (the harness's discovery pass).
  void Arm(std::vector<FaultRule> rules);
  /// Stop consulting rules and recording. Counters and trace are kept
  /// until the next Arm so a test can inspect them after the workload.
  void Disarm();
  bool armed() const;

  /// Wrapper hits recorded since the last Arm (in order).
  std::vector<FaultHit> trace() const;
  /// Total wrapper hits since the last Arm.
  uint64_t hits() const;

  /// Wrapper-side entry point: record the hit and decide whether to fail
  /// it. On true, *rule is the matched rule (errno / short_bytes).
  bool ShouldFail(FaultSite site, FaultRule* rule);

 private:
  FaultInjector() = default;
};

// The syscall seam. Signatures mirror the wrapped calls plus the leading
// site tag; error reporting is unchanged (return value + errno, or the
// stdio convention), so call sites read like the raw syscall.
namespace fio {

int Open(FaultSite site, const char* path, int flags, mode_t mode);
int Open(FaultSite site, const char* path, int flags);
ssize_t Write(FaultSite site, int fd, const void* buf, size_t count);
int Fsync(FaultSite site, int fd);
int Close(FaultSite site, int fd);
int Rename(FaultSite site, const char* from, const char* to);
int Unlink(FaultSite site, const char* path);
int Link(FaultSite site, const char* from, const char* to);
int Truncate(FaultSite site, const char* path, off_t length);
std::FILE* FOpen(FaultSite site, const char* path, const char* mode);
size_t FWrite(FaultSite site, const void* buf, size_t size, size_t n,
              std::FILE* stream);
int FFlush(FaultSite site, std::FILE* stream);
/// For the whole-file reads (io/read_file.h, one open + read loop per
/// call): consulted before the open; a firing rule yields IOError built
/// from the rule's errno, as if the open itself had failed.
Status Probe(FaultSite site, const std::string& what);

}  // namespace fio
}  // namespace dkc

#endif  // DKC_IO_FAULT_H_
