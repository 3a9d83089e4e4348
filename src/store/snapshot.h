// Versioned, checksummed binary snapshot of the dynamic engine's complete
// state: compact graph CSR, current solution, and candidate index.
//
// Layout (all integers little-endian):
//
//   [8]  magic "DKCSNAP1"
//   [4]  format version (u32)
//   [4]  section count (u32)
//   per section:
//     [4] section id   (u32)
//     [8] payload size (u64)
//     [4] CRC-32 of the payload (u32)
//     [.] payload
//   [4]  CRC-32 of everything above (u32)
//
// Per-section CRCs attribute corruption ("the graph section is damaged");
// the trailing whole-file CRC closes the gap the section table itself would
// otherwise leave — a bit flip anywhere in the file is detected, and a
// damaged snapshot is *never* partially loaded. Publication is atomic
// (write temp + fsync + rename via io/atomic_file.h), so a crash mid-write
// leaves the previous snapshot intact.

#ifndef DKC_STORE_SNAPSHOT_H_
#define DKC_STORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "dynamic/candidate_index.h"
#include "util/status.h"

namespace dkc {

struct SnapshotMeta {
  int k = 0;
  /// Sequence number of the last update folded into this snapshot; WAL
  /// records with seq <= applied_seq are already reflected and must be
  /// skipped on replay.
  uint64_t applied_seq = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
};

/// Serialize `state` (+ meta) and atomically publish it at `path`. With
/// `pool`, each section's payload CRC is computed in blocks across its
/// workers (Crc32Chunked); the bytes written are the same either way.
Status WriteSnapshot(const SolutionState& state, uint64_t applied_seq,
                     const std::string& path, ThreadPool* pool = nullptr);

struct LoadedSnapshot {
  SnapshotMeta meta;
  std::unique_ptr<SolutionState> state;
};

/// Load and fully validate a snapshot. IOError if the file cannot be read,
/// Corruption if any checksum, bound, or engine invariant fails — a
/// corrupt snapshot never yields a partially restored state. With `pool`,
/// the section CRCs, Deserialize's range checks and CheckInvariants run
/// across its workers; the checks run in the same order, and the restored
/// state and any refusal's status and message are the serial load's.
StatusOr<LoadedSnapshot> ReadSnapshot(const std::string& path,
                                      ThreadPool* pool = nullptr);

}  // namespace dkc

#endif  // DKC_STORE_SNAPSHOT_H_
