// Durability tests for src/store: CRC known answers, WAL torn-tail vs
// corruption semantics, snapshot round-trip/validation, and the kill-point
// harness — for every injected crash state (mid-WAL-append, mid-snapshot
// write, fully-written-but-unrenamed snapshot, between snapshot publish and
// WAL compaction), recovery must yield an engine byte-identical to the one
// that never crashed, and any bit-flipped record must be rejected as
// Corruption, never loaded.

#include "store/store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "io/atomic_file.h"
#include "io/solution_io.h"
#include "store/crc32.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "test_util.h"
#include "util/rng.h"

namespace dkc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void AppendFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The byte-identity oracle: the engine's complete serialized state —
/// graph CSR, solution, candidate index, free lists, generation tags.
/// Two engines with equal fingerprints make identical future decisions.
std::string EngineFingerprint(const DynamicSolver& solver) {
  std::string bytes;
  solver.state().SerializeGraphTo(&bytes);
  solver.state().SerializeStateTo(&bytes);
  return bytes;
}

DynamicOptions TestOptions() {
  DynamicOptions options;
  options.k = 3;
  // A deterministic work cap (not wall clock): budget-truncated updates
  // must replay byte-identically too.
  options.update_budget.max_branch_nodes = 5000;
  return options;
}

struct TestWorld {
  Graph graph;
  std::vector<UpdateOp> ops;
};

TestWorld MakeWorld(size_t op_count, uint64_t seed) {
  TestWorld world;
  world.graph = testing::RandomGraph(28, 0.28, seed);
  Rng rng(seed * 7919 + 13);
  world.ops = MakeChurnStream(world.graph, op_count, rng);
  return world;
}

/// Reference run that never touches disk: Build + apply ops[0..count).
DynamicSolver ReferenceRun(const TestWorld& world, size_t count) {
  auto solver = DynamicSolver::Build(world.graph, TestOptions());
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  for (size_t i = 0; i < count; ++i) {
    const auto& op = world.ops[i];
    const Status s = op.is_insert
                         ? solver->InsertEdge(op.edge.first, op.edge.second)
                         : solver->DeleteEdge(op.edge.first, op.edge.second);
    EXPECT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
  }
  return std::move(solver).value();
}

/// Batched reference: Build + ApplyBatch over ops[0..count) in epochs of
/// `epoch` updates. Epoch boundaries are part of the stream, so recovery
/// of a batched store must be compared against *this*, not ReferenceRun.
DynamicSolver BatchedReferenceRun(const TestWorld& world, size_t count,
                                  size_t epoch) {
  auto solver = DynamicSolver::Build(world.graph, TestOptions());
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  const std::span<const UpdateOp> all(world.ops);
  for (size_t i = 0; i < count; i += epoch) {
    const Status s =
        solver->ApplyBatch(all.subspan(i, std::min(epoch, count - i)));
    EXPECT_TRUE(s.ok()) << "epoch at op " << i << ": " << s.ToString();
  }
  return std::move(solver).value();
}

/// The WAL records AppendGroup would write for ops[first..first+count).
std::vector<WalRecord> GroupRecords(const TestWorld& world, size_t first,
                                    size_t count) {
  std::vector<WalRecord> recs(count);
  for (size_t i = 0; i < count; ++i) {
    recs[i].seq = first + i + 1;
    recs[i].is_insert = world.ops[first + i].is_insert;
    recs[i].u = world.ops[first + i].edge.first;
    recs[i].v = world.ops[first + i].edge.second;
  }
  return recs;
}

// ------------------------------------------------------------------ CRC ---

TEST(Crc32Test, KnownAnswers) {
  // The standard CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, SeedChainsIncrementally) {
  const std::string a = "hello ", b = "world";
  EXPECT_EQ(Crc32(a + b), Crc32(b, Crc32(a)));
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::string data = "the quick brown fox";
  const uint32_t before = Crc32(data);
  data[7] ^= 0x01;
  EXPECT_NE(Crc32(data), before);
}

// ------------------------------------------------------------------ WAL ---

std::vector<WalRecord> MakeRecords(size_t count) {
  std::vector<WalRecord> records;
  for (size_t i = 0; i < count; ++i) {
    WalRecord rec;
    rec.seq = i + 1;
    rec.is_insert = (i % 3 != 0);
    rec.u = static_cast<NodeId>(i * 5 + 1);
    rec.v = static_cast<NodeId>(i * 5 + 3);
    records.push_back(rec);
  }
  return records;
}

TEST(WalTest, MissingFileReadsEmpty) {
  auto result = ReadWal(TempPath("dkc_wal_never_written.wal"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->valid_bytes, 0u);
  EXPECT_FALSE(result->torn_tail);
}

TEST(WalTest, AppendReadRoundTrip) {
  const std::string path = TempPath("dkc_wal_roundtrip.wal");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& rec : MakeRecords(5)) {
      ASSERT_TRUE(writer->Append(rec).ok());
    }
  }
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->records.size(), 5u);
  EXPECT_EQ(result->valid_bytes, 5 * kWalRecordBytes);
  EXPECT_FALSE(result->torn_tail);
  const auto expected = MakeRecords(5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result->records[i].seq, expected[i].seq);
    EXPECT_EQ(result->records[i].is_insert, expected[i].is_insert);
    EXPECT_EQ(result->records[i].u, expected[i].u);
    EXPECT_EQ(result->records[i].v, expected[i].v);
  }
  std::remove(path.c_str());
}

TEST(WalTest, FailedSyncPoisonsWriterOnFullDevice) {
  // fsyncgate regression that needs no injection seam (so it also runs in
  // Release builds): /dev/full accepts the buffered append but fails the
  // flush with ENOSPC. After that failed sync the writer must never again
  // report success — the kernel may already have dropped the page, and a
  // later "clean" sync would acknowledge a record that is not durable.
  if (!std::ifstream("/dev/full").is_open()) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  auto writer = WalWriter::Open("/dev/full");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const auto records = MakeRecords(2);
  const Status failed = writer->Append(records[0], /*sync=*/true);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), Status::Code::kIOError);
  EXPECT_FALSE(writer->poisoned().ok());
  // Poisoned: the next append fails up front with the original error,
  // without touching the file.
  EXPECT_EQ(writer->Append(records[1], /*sync=*/false).ToString(),
            failed.ToString());
  EXPECT_EQ(writer->Sync().ToString(), failed.ToString());
}

TEST(WalTest, TornTailAtEveryCutPointTruncates) {
  // A crash mid-append leaves 1..20 bytes of the final record. Every cut
  // must be recognized as torn (not Corruption), keeping the two complete
  // records before it.
  const auto records = MakeRecords(3);
  std::string intact;
  intact += EncodeWalRecord(records[0]);
  intact += EncodeWalRecord(records[1]);
  const std::string last = EncodeWalRecord(records[2]);
  const std::string path = TempPath("dkc_wal_torn.wal");
  for (size_t cut = 1; cut < kWalRecordBytes; ++cut) {
    WriteFileBytes(path, intact + last.substr(0, cut));
    auto result = ReadWal(path);
    ASSERT_TRUE(result.ok()) << "cut=" << cut << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result->torn_tail) << "cut=" << cut;
    EXPECT_EQ(result->records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(result->valid_bytes, intact.size()) << "cut=" << cut;
    // The recovery cut: after truncation the file reads clean.
    ASSERT_TRUE(TruncateWal(path, result->valid_bytes).ok());
    auto again = ReadWal(path);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->torn_tail);
    EXPECT_EQ(again->records.size(), 2u);
  }
  std::remove(path.c_str());
}

TEST(WalTest, BitFlipInAnyByteIsCorruption) {
  // A *complete* record that fails its CRC is bit rot, not a torn append
  // — it must surface as Corruption, never replay, never truncate.
  const auto records = MakeRecords(2);
  const std::string clean =
      EncodeWalRecord(records[0]) + EncodeWalRecord(records[1]);
  const std::string path = TempPath("dkc_wal_bitflip.wal");
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string damaged = clean;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x10);
    WriteFileBytes(path, damaged);
    auto result = ReadWal(path);
    // Flipping a bit inside the seq field of record 0 may still produce a
    // valid-CRC record only if the CRC collides — it cannot, CRC-32
    // detects all single-bit errors. So every flip must fail.
    ASSERT_FALSE(result.ok()) << "byte " << i;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
        << "byte " << i;
  }
  std::remove(path.c_str());
}

TEST(WalTest, SequenceGapIsCorruption) {
  auto records = MakeRecords(3);
  records[2].seq = 5;  // 1, 2, 5
  std::string bytes;
  for (const auto& rec : records) bytes += EncodeWalRecord(rec);
  const std::string path = TempPath("dkc_wal_gap.wal");
  WriteFileBytes(path, bytes);
  auto result = ReadWal(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ WAL groups ---

TEST(WalTest, GroupRoundTripYieldsOneBatchedSegment) {
  const auto records = MakeRecords(6);
  const std::string path = TempPath("dkc_wal_group.wal");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    // bare, group of 4, bare — mixed traffic in one log.
    ASSERT_TRUE(writer->Append(records[0]).ok());
    ASSERT_TRUE(
        writer->AppendGroup(std::span(records).subspan(1, 4)).ok());
    ASSERT_TRUE(writer->Append(records[5]).ok());
  }
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->records.size(), 6u);  // the commit marker is not a record
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result->records[i].seq, records[i].seq);
    EXPECT_EQ(result->records[i].is_insert, records[i].is_insert);
    EXPECT_EQ(result->records[i].u, records[i].u);
    EXPECT_EQ(result->records[i].v, records[i].v);
  }
  ASSERT_EQ(result->segments.size(), 3u);
  EXPECT_EQ(result->segments[0].count, 1u);
  EXPECT_FALSE(result->segments[0].batched);
  EXPECT_EQ(result->segments[1].first, 1u);
  EXPECT_EQ(result->segments[1].count, 4u);
  EXPECT_TRUE(result->segments[1].batched);
  EXPECT_EQ(result->segments[2].first, 5u);
  EXPECT_FALSE(result->segments[2].batched);
  EXPECT_FALSE(result->torn_tail);
  EXPECT_FALSE(result->torn_group);
  // 6 update records + 1 commit marker.
  EXPECT_EQ(result->valid_bytes, 7 * kWalRecordBytes);
  std::remove(path.c_str());
}

TEST(WalTest, TornGroupAtEveryCutPointRecoversToEpochBoundary) {
  // Intact prefix: one bare record + one committed group (an epoch). Then
  // a crash lands at every possible byte offset inside the next group's
  // frame — member records and the commit marker alike. Every cut must
  // recover to the committed boundary: the open group's members are
  // dropped even when they are individually complete and CRC-clean.
  const auto records = MakeRecords(8);
  std::string intact = EncodeWalRecord(records[0]);
  intact += EncodeWalGroup(std::span(records).subspan(1, 3));
  const std::string frame = EncodeWalGroup(std::span(records).subspan(4, 4));
  const std::string path = TempPath("dkc_wal_torngroup.wal");
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    WriteFileBytes(path, intact + frame.substr(0, cut));
    auto result = ReadWal(path);
    ASSERT_TRUE(result.ok()) << "cut=" << cut << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result->torn_tail || result->torn_group) << "cut=" << cut;
    ASSERT_EQ(result->records.size(), 4u) << "cut=" << cut;
    ASSERT_EQ(result->segments.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(result->valid_bytes, intact.size()) << "cut=" << cut;
    // The recovery cut restores a clean, committed log.
    ASSERT_TRUE(TruncateWal(path, result->valid_bytes).ok());
    auto again = ReadWal(path);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->torn_tail);
    EXPECT_FALSE(again->torn_group);
    EXPECT_EQ(again->records.size(), 4u);
  }
  // The full frame lands: the epoch becomes durable.
  WriteFileBytes(path, intact + frame);
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 8u);
  ASSERT_EQ(result->segments.size(), 3u);
  EXPECT_TRUE(result->segments[2].batched);
  std::remove(path.c_str());
}

TEST(WalTest, GroupFrameViolationsAreCorruption) {
  const auto records = MakeRecords(5);
  const std::string path = TempPath("dkc_wal_groupbad.wal");
  const std::string group = EncodeWalGroup(std::span(records).first(3));
  const size_t rec_bytes = kWalRecordBytes;

  // A bare record interleaved into an open group: members of group [0,3)
  // followed by a bare record 4 — appends are atomic frames, so this
  // cannot come from a crash. Corruption.
  {
    WalRecord bare = records[3];
    std::string bytes = group.substr(0, 3 * rec_bytes);  // members only
    bytes += EncodeWalRecord(bare);
    WriteFileBytes(path, bytes);
    auto result = ReadWal(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  }
  // A commit marker with no open group.
  {
    WalRecord commit;
    commit.seq = 3;
    commit.is_insert = false;
    commit.u = 3;
    commit.v = 0;
    // Fabricate the marker by taking the last record of a real frame.
    std::string marker = group.substr(3 * rec_bytes);
    WriteFileBytes(path, marker);
    auto result = ReadWal(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  }
  // A commit marker whose member count disagrees: drop one member record
  // but keep the count-3 marker.
  {
    std::string bytes = group.substr(0, 2 * rec_bytes);  // 2 of 3 members
    bytes += group.substr(3 * rec_bytes);                // count-3 marker
    WriteFileBytes(path, bytes);
    auto result = ReadWal(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  }
  // A bit flip inside a group member is caught by the member's CRC.
  {
    std::string bytes = group;
    bytes[rec_bytes + 5] = static_cast<char>(bytes[rec_bytes + 5] ^ 0x20);
    WriteFileBytes(path, bytes);
    auto result = ReadWal(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  }
  // An unknown op byte.
  {
    std::string bytes = group;
    bytes[0] = 9;  // not a WalOp — CRC fails before op interpretation
    WriteFileBytes(path, bytes);
    auto result = ReadWal(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------- snapshot ---

TEST(SnapshotTest, RoundTripIsByteIdentical) {
  TestWorld world = MakeWorld(0, 91);
  DynamicSolver original = ReferenceRun(world, 0);
  const std::string path = TempPath("dkc_snap_roundtrip.bin");
  ASSERT_TRUE(WriteSnapshot(original.state(), 17, path).ok());

  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.k, 3);
  EXPECT_EQ(loaded->meta.applied_seq, 17u);
  EXPECT_EQ(loaded->meta.num_nodes, original.graph().num_nodes());

  std::string original_bytes, restored_bytes;
  original.state().SerializeGraphTo(&original_bytes);
  original.state().SerializeStateTo(&original_bytes);
  loaded->state->SerializeGraphTo(&restored_bytes);
  loaded->state->SerializeStateTo(&restored_bytes);
  EXPECT_EQ(original_bytes, restored_bytes);

  std::string error;
  EXPECT_TRUE(loaded->state->CheckInvariants(&error)) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadSnapshot(TempPath("dkc_snap_missing.bin")).status().code(),
            Status::Code::kIOError);
}

TEST(SnapshotTest, BitFlipAnywhereIsCorruption) {
  TestWorld world = MakeWorld(0, 92);
  DynamicSolver original = ReferenceRun(world, 0);
  const std::string path = TempPath("dkc_snap_bitflip.bin");
  ASSERT_TRUE(WriteSnapshot(original.state(), 3, path).ok());
  const std::string clean = ReadFileBytes(path);
  ASSERT_GT(clean.size(), 24u);

  // Flip one bit at a stride of byte positions covering the header, every
  // section, and the trailing CRC. The whole-file checksum must catch all
  // of them — a damaged snapshot is never loaded.
  const size_t stride = std::max<size_t>(1, clean.size() / 211);
  for (size_t i = 0; i < clean.size(); i += stride) {
    std::string damaged = clean;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x04);
    WriteFileBytes(path, damaged);
    auto result = ReadSnapshot(path);
    ASSERT_FALSE(result.ok()) << "byte " << i << " of " << clean.size();
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
        << "byte " << i;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncationAtAnyLengthIsRejected) {
  TestWorld world = MakeWorld(0, 93);
  DynamicSolver original = ReferenceRun(world, 0);
  const std::string path = TempPath("dkc_snap_trunc.bin");
  ASSERT_TRUE(WriteSnapshot(original.state(), 0, path).ok());
  const std::string clean = ReadFileBytes(path);

  const size_t stride = std::max<size_t>(1, clean.size() / 211);
  for (size_t len = 0; len < clean.size(); len += stride) {
    WriteFileBytes(path, clean.substr(0, len));
    auto result = ReadSnapshot(path);
    ASSERT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
        << "prefix length " << len;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- store ---

struct StorePaths {
  std::string snapshot;
  std::string wal;
};

StorePaths MakeStorePaths(const std::string& tag) {
  StorePaths paths;
  paths.snapshot = TempPath("dkc_store_" + tag + ".snap");
  paths.wal = TempPath("dkc_store_" + tag + ".wal");
  std::remove(paths.snapshot.c_str());
  std::remove(paths.wal.c_str());
  return paths;
}

StoreOptions MakeStoreOptions(uint64_t checkpoint_every = 0) {
  StoreOptions options;
  options.dynamic = TestOptions();
  options.checkpoint_every = checkpoint_every;
  return options;
}

void CleanUp(const StorePaths& paths) {
  std::remove(paths.snapshot.c_str());
  std::remove(paths.wal.c_str());
  std::remove(AtomicTempPath(paths.snapshot).c_str());
}

TEST(StoreTest, CreateApplyReopenIsByteIdentical) {
  TestWorld world = MakeWorld(60, 101);
  const StorePaths paths = MakeStorePaths("reopen");

  // Clean shutdown halfway through the stream...
  {
    auto store =
        DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                             MakeStoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 30; ++i) {
      ASSERT_TRUE(store->Apply(world.ops[i]).ok()) << "op " << i;
    }
    EXPECT_EQ(store->applied_seq(), 30u);
  }

  // ...then recovery replays the WAL and continues to the end.
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 30u);
  EXPECT_EQ(reopened->replayed_records(), 30u);
  EXPECT_FALSE(reopened->recovered_torn_tail());
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 30)));

  for (size_t i = 30; i < world.ops.size(); ++i) {
    ASSERT_TRUE(reopened->Apply(world.ops[i]).ok()) << "op " << i;
  }
  DynamicSolver reference = ReferenceRun(world, world.ops.size());
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(reference));
  EXPECT_EQ(SolutionToString(reopened->solver().Snapshot()),
            SolutionToString(reference.Snapshot()));
  CleanUp(paths);
}

TEST(StoreTest, AutoCheckpointCompactsWalAndStaysIdentical) {
  TestWorld world = MakeWorld(40, 102);
  const StorePaths paths = MakeStorePaths("checkpoint");
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions(/*checkpoint_every=*/8));
    ASSERT_TRUE(store.ok());
    for (const auto& op : world.ops) ASSERT_TRUE(store->Apply(op).ok());
    EXPECT_EQ(store->checkpoints_taken(), 5u);
    EXPECT_EQ(store->checkpoint_seq(), 40u);
  }
  // The WAL was compacted at seq 40, so recovery replays nothing.
  EXPECT_EQ(ReadFileBytes(paths.wal).size(), 0u);
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions(8));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 40u);
  EXPECT_EQ(reopened->replayed_records(), 0u);
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 40)));
  CleanUp(paths);
}

TEST(StoreTest, KillPointMidWalAppendRecoversTornTail) {
  TestWorld world = MakeWorld(30, 103);
  const StorePaths paths = MakeStorePaths("midappend");
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(store->Apply(world.ops[i]).ok());
  }
  // Crash cut the 21st append short: only 9 of its 21 bytes hit the disk.
  WalRecord torn;
  torn.seq = 21;
  torn.is_insert = world.ops[20].is_insert;
  torn.u = world.ops[20].edge.first;
  torn.v = world.ops[20].edge.second;
  AppendFileBytes(paths.wal, EncodeWalRecord(torn).substr(0, 9));

  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->recovered_torn_tail());
  EXPECT_EQ(reopened->applied_seq(), 20u);
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 20)));

  // The unacknowledged op is simply not there; re-applying it and the rest
  // of the stream converges with the uninterrupted run.
  for (size_t i = 20; i < world.ops.size(); ++i) {
    ASSERT_TRUE(reopened->Apply(world.ops[i]).ok()) << "op " << i;
  }
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, world.ops.size())));
  CleanUp(paths);
}

TEST(StoreTest, KillPointMidSnapshotWriteIsInvisible) {
  TestWorld world = MakeWorld(30, 104);
  const StorePaths paths = MakeStorePaths("midsnap");
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    for (size_t i = 0; i < 15; ++i) ASSERT_TRUE(store->Apply(world.ops[i]).ok());
  }
  // Crash midway through writing the checkpoint temp file: a garbage
  // prefix sits at the temp path, the published snapshot is untouched.
  WriteFileBytes(AtomicTempPath(paths.snapshot),
                 std::string("DKCSNAP1 then the lights went out"));

  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 15u);
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 15)));
  CleanUp(paths);
}

TEST(StoreTest, KillPointPreRenameUsesOldSnapshotPlusWal) {
  TestWorld world = MakeWorld(30, 105);
  const StorePaths paths = MakeStorePaths("prerename");
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    for (size_t i = 0; i < 12; ++i) ASSERT_TRUE(store->Apply(world.ops[i]).ok());
    // Crash after the checkpoint's temp snapshot was fully written and
    // fsynced but before the rename: fabricate exactly that state.
    ASSERT_TRUE(WriteSnapshot(store->solver().state(), store->applied_seq(),
                              AtomicTempPath(paths.snapshot) + ".fab")
                    .ok());
  }
  ASSERT_EQ(std::rename((AtomicTempPath(paths.snapshot) + ".fab").c_str(),
                        AtomicTempPath(paths.snapshot).c_str()),
            0);

  // Recovery ignores the orphaned temp: old snapshot (seq 0) + 12 WAL
  // records reach the same state the finished checkpoint would have.
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 12u);
  EXPECT_EQ(reopened->replayed_records(), 12u);
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 12)));
  CleanUp(paths);
}

TEST(StoreTest, KillPointBetweenSnapshotPublishAndWalCompaction) {
  TestWorld world = MakeWorld(30, 106);
  const StorePaths paths = MakeStorePaths("postpublish");
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    for (size_t i = 0; i < 18; ++i) ASSERT_TRUE(store->Apply(world.ops[i]).ok());
    // A checkpoint's first half completed (snapshot published at seq 18)
    // but the crash hit before WAL compaction: all 18 records remain.
    ASSERT_TRUE(WriteSnapshot(store->solver().state(), store->applied_seq(),
                              paths.snapshot)
                    .ok());
  }
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Every WAL record is covered by the snapshot — replayed nothing.
  EXPECT_EQ(reopened->applied_seq(), 18u);
  EXPECT_EQ(reopened->replayed_records(), 0u);
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 18)));
  CleanUp(paths);
}

TEST(StoreTest, BitFlippedSnapshotOrWalIsNeverLoaded) {
  TestWorld world = MakeWorld(20, 107);
  const StorePaths paths = MakeStorePaths("bitflip");
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    for (const auto& op : world.ops) ASSERT_TRUE(store->Apply(op).ok());
  }
  const std::string snap = ReadFileBytes(paths.snapshot);
  const std::string wal = ReadFileBytes(paths.wal);

  std::string damaged = snap;
  damaged[snap.size() / 2] ^= 0x40;
  WriteFileBytes(paths.snapshot, damaged);
  auto bad_snap =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_FALSE(bad_snap.ok());
  EXPECT_EQ(bad_snap.status().code(), Status::Code::kCorruption);

  WriteFileBytes(paths.snapshot, snap);
  damaged = wal;
  damaged[wal.size() / 2] ^= 0x40;
  WriteFileBytes(paths.wal, damaged);
  auto bad_wal =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_FALSE(bad_wal.ok());
  EXPECT_EQ(bad_wal.status().code(), Status::Code::kCorruption);

  WriteFileBytes(paths.wal, wal);
  auto good = DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  CleanUp(paths);
}

TEST(StoreTest, RejectedUpdatesAreNeverLogged) {
  TestWorld world = MakeWorld(0, 108);
  const StorePaths paths = MakeStorePaths("reject");
  auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                    MakeStoreOptions());
  ASSERT_TRUE(store.ok());

  // Find one existing edge and one absent pair.
  const Graph& g = world.graph;
  NodeId eu = 0, ev = 0;
  for (NodeId u = 0; u < g.num_nodes() && ev == 0; ++u) {
    for (NodeId v : g.Neighbors(u)) {
      eu = u;
      ev = v;
      break;
    }
  }
  ASSERT_NE(ev, 0u);

  UpdateOp bad_insert;
  bad_insert.is_insert = true;
  bad_insert.edge = {eu, ev};
  EXPECT_EQ(store->Apply(bad_insert).code(), Status::Code::kInvalidArgument);

  UpdateOp self_loop;
  self_loop.is_insert = true;
  self_loop.edge = {1, 1};
  EXPECT_EQ(store->Apply(self_loop).code(), Status::Code::kInvalidArgument);

  UpdateOp bad_delete;
  bad_delete.is_insert = false;
  // The churn mirror guarantees ops are valid; an absent pair is one we
  // just failed to insert as existing — invert: delete a pair that is
  // certainly absent. Scan for one.
  NodeId au = 0, av = 0;
  for (NodeId u = 0; u < g.num_nodes() && av == 0; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!g.HasEdge(u, v)) {
        au = u;
        av = v;
        break;
      }
    }
  }
  bad_delete.edge = {au, av};
  EXPECT_EQ(store->Apply(bad_delete).code(), Status::Code::kNotFound);

  EXPECT_EQ(store->applied_seq(), 0u);
  EXPECT_EQ(ReadFileBytes(paths.wal).size(), 0u);
  CleanUp(paths);
}

// An insert naming a huge node id used to be logged and then abort the
// engine on bad_alloc — and every later Open replayed it and aborted
// again. It must be refused before the WAL append, through both ingest
// paths, leaving the files reopenable.
TEST(StoreTest, OversizedNodeIdIsRefusedBeforeLogging) {
  TestWorld world = MakeWorld(8, 111);
  const StorePaths paths = MakeStorePaths("oversized");
  UpdateOp huge;
  huge.is_insert = true;
  huge.edge = {0, 3000000000u};
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(store->Apply(world.ops[i]).ok()) << "op " << i;
    }
    const size_t wal_bytes = ReadFileBytes(paths.wal).size();
    const std::string state = EngineFingerprint(store->solver());

    EXPECT_EQ(store->Apply(huge).code(), Status::Code::kInvalidArgument);
    EXPECT_FALSE(store->sealed());
    EXPECT_EQ(store->applied_seq(), 4u);
    EXPECT_EQ(ReadFileBytes(paths.wal).size(), wal_bytes);
    EXPECT_EQ(EngineFingerprint(store->solver()), state);

    const std::vector<UpdateOp> batch = {world.ops[4], huge};
    EXPECT_EQ(store->ApplyBatch(batch).code(), Status::Code::kInvalidArgument);
    EXPECT_FALSE(store->sealed());
    EXPECT_EQ(store->applied_seq(), 4u);
    EXPECT_EQ(ReadFileBytes(paths.wal).size(), wal_bytes);
    EXPECT_EQ(EngineFingerprint(store->solver()), state);
  }
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 4u);
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 4)));
  CleanUp(paths);
}

TEST(StoreTest, StaleWalFromPreviousStoreIsNotReplayed) {
  TestWorld world = MakeWorld(10, 109);
  const StorePaths paths = MakeStorePaths("stale");
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    for (const auto& op : world.ops) ASSERT_TRUE(store->Apply(op).ok());
  }
  // Re-creating at the same paths must reset the WAL: the fresh store's
  // snapshot is at seq 0 and the old ten records do not belong to it.
  {
    auto recreated = DurableStore::Create(
        world.graph, paths.snapshot, paths.wal, MakeStoreOptions());
    ASSERT_TRUE(recreated.ok());
    EXPECT_EQ(ReadFileBytes(paths.wal).size(), 0u);
  }
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->applied_seq(), 0u);
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 0)));
  CleanUp(paths);
}

// -------------------------------------------------- store, group commit ---

TEST(StoreTest, BatchedApplyReopenIsByteIdentical) {
  constexpr size_t kEpoch = 8;
  TestWorld world = MakeWorld(64, 110);
  const StorePaths paths = MakeStorePaths("batched_reopen");
  const std::span<const UpdateOp> all(world.ops);

  uint64_t flushes = 0;
  StoreOptions options = MakeStoreOptions();
  options.after_group_flush = [&flushes](uint64_t) { ++flushes; };
  {
    auto store =
        DurableStore::Create(world.graph, paths.snapshot, paths.wal, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 32; i += kEpoch) {
      ASSERT_TRUE(store->ApplyBatch(all.subspan(i, kEpoch)).ok());
    }
    EXPECT_EQ(store->applied_seq(), 32u);
    EXPECT_EQ(flushes, 4u);  // one group flush per epoch
  }

  // Recovery replays the four committed groups through ApplyBatch — the
  // same entry point, so byte-identical to the batched reference.
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 32u);
  EXPECT_EQ(reopened->replayed_records(), 32u);
  EXPECT_FALSE(reopened->recovered_torn_group());
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(BatchedReferenceRun(world, 32, kEpoch)));

  // Continue batched to the end; still identical.
  for (size_t i = 32; i < 64; i += kEpoch) {
    ASSERT_TRUE(reopened->ApplyBatch(all.subspan(i, kEpoch)).ok());
  }
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(BatchedReferenceRun(world, 64, kEpoch)));
  CleanUp(paths);
}

TEST(StoreTest, KillPointInsideGroupCommitWindowReplaysWholeEpoch) {
  // The crash-in-window state: the WAL group (members + commit marker) is
  // fully flushed, the engine never applied the epoch. Recovery must
  // replay the whole group — the acknowledged-at-flush epoch survives.
  constexpr size_t kEpoch = 8;
  TestWorld world = MakeWorld(24, 111);
  const StorePaths paths = MakeStorePaths("commit_window");
  const std::span<const UpdateOp> all(world.ops);
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(0, kEpoch)).ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(kEpoch, kEpoch)).ok());
  }
  // Epoch 3's frame hit the disk; the process died before the engine ran.
  AppendFileBytes(paths.wal,
                  EncodeWalGroup(GroupRecords(world, 16, kEpoch)));

  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 24u);
  EXPECT_EQ(reopened->replayed_records(), 24u);
  EXPECT_FALSE(reopened->recovered_torn_group());  // committed, not torn
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(BatchedReferenceRun(world, 24, kEpoch)));
  CleanUp(paths);
}

TEST(StoreTest, KillPointAtEveryGroupFrameCutRecoversToEpochBoundary) {
  // The other half of the window: the crash cut the group frame itself
  // short, at *every possible byte offset*. Recovery must land exactly on
  // the previous epoch boundary — never a partial epoch — and re-applying
  // the lost epoch must converge with the uninterrupted batched run.
  constexpr size_t kEpoch = 6;
  TestWorld world = MakeWorld(18, 112);
  const StorePaths paths = MakeStorePaths("group_cut");
  const std::span<const UpdateOp> all(world.ops);
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(0, kEpoch)).ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(kEpoch, kEpoch)).ok());
  }
  const std::string committed = ReadFileBytes(paths.wal);
  const std::string frame =
      EncodeWalGroup(GroupRecords(world, 12, kEpoch));

  for (size_t cut = 1; cut < frame.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    WriteFileBytes(paths.wal, committed + frame.substr(0, cut));
    auto reopened =
        DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->applied_seq(), 12u);
    EXPECT_TRUE(reopened->recovered_torn_tail() ||
                reopened->recovered_torn_group());
    EXPECT_EQ(EngineFingerprint(reopened->solver()),
              EngineFingerprint(BatchedReferenceRun(world, 12, kEpoch)));
    // The WAL was truncated to the boundary: the lost epoch re-applies.
    ASSERT_TRUE(reopened->ApplyBatch(all.subspan(12, kEpoch)).ok());
    EXPECT_EQ(reopened->applied_seq(), 18u);
    EXPECT_EQ(EngineFingerprint(reopened->solver()),
              EngineFingerprint(BatchedReferenceRun(world, 18, kEpoch)));
  }
  CleanUp(paths);
}

TEST(StoreTest, GroupStraddlingSnapshotBoundaryIsCorruption) {
  // Checkpoints land only at epoch boundaries, so a snapshot seq strictly
  // inside a committed group cannot come from a crash — refuse to guess.
  constexpr size_t kEpoch = 4;
  TestWorld world = MakeWorld(8, 113);
  const StorePaths paths = MakeStorePaths("straddle");
  const std::span<const UpdateOp> all(world.ops);
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(0, kEpoch)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());  // snapshot at seq 4, WAL empty
  }
  // A fabricated group [3, 6] straddles the snapshot's seq 4.
  AppendFileBytes(paths.wal, EncodeWalGroup(GroupRecords(world, 2, 4)));
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kCorruption);
  CleanUp(paths);
}

TEST(StoreTest, MixedBareAndBatchedTrafficReplaysThroughMatchingPaths) {
  // A log interleaving bare appends and group commits must replay each
  // segment through the entry point that wrote it (batch boundaries are
  // part of the stream).
  TestWorld world = MakeWorld(20, 114);
  const StorePaths paths = MakeStorePaths("mixed_traffic");
  const std::span<const UpdateOp> all(world.ops);
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Apply(world.ops[0]).ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(1, 8)).ok());
    ASSERT_TRUE(store->Apply(world.ops[9]).ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(10, 10)).ok());
    EXPECT_EQ(store->applied_seq(), 20u);
  }
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 20u);
  EXPECT_EQ(reopened->replayed_records(), 20u);

  // The in-memory twin of the same interleaving.
  auto twin = DynamicSolver::Build(world.graph, TestOptions());
  ASSERT_TRUE(twin.ok());
  auto apply_one = [&](const UpdateOp& op) {
    return op.is_insert ? twin->InsertEdge(op.edge.first, op.edge.second)
                        : twin->DeleteEdge(op.edge.first, op.edge.second);
  };
  ASSERT_TRUE(apply_one(world.ops[0]).ok());
  ASSERT_TRUE(twin->ApplyBatch(all.subspan(1, 8)).ok());
  ASSERT_TRUE(apply_one(world.ops[9]).ok());
  ASSERT_TRUE(twin->ApplyBatch(all.subspan(10, 10)).ok());
  EXPECT_EQ(EngineFingerprint(reopened->solver()), EngineFingerprint(*twin));
  CleanUp(paths);
}

// ------------------------------------------------------- snapshot retention

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

std::string RetainedPath(const StorePaths& paths, uint64_t seq) {
  return paths.snapshot + "." + std::to_string(seq);
}

TEST(StoreTest, RetentionRotatesAndPrunesSnapshots) {
  TestWorld world = MakeWorld(60, 109);
  const StorePaths paths = MakeStorePaths("retention");
  StoreOptions options = MakeStoreOptions();
  options.keep_snapshots = 3;  // live + 2 retained

  auto store =
      DurableStore::Create(world.graph, paths.snapshot, paths.wal, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->retained_snapshots().empty());

  size_t applied = 0;
  auto advance = [&](size_t count) {
    for (size_t i = 0; i < count; ++i, ++applied) {
      ASSERT_TRUE(store->Apply(world.ops[applied]).ok()) << "op " << applied;
    }
  };

  // Each checkpoint retires the outgoing snapshot under the seq it covers.
  advance(10);
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->retained_snapshots(), (std::vector<uint64_t>{0}));
  EXPECT_TRUE(FileExists(RetainedPath(paths, 0)));

  advance(10);
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->retained_snapshots(), (std::vector<uint64_t>{0, 10}));

  // Third rotation exceeds the window: the oldest file is pruned.
  advance(10);
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->retained_snapshots(), (std::vector<uint64_t>{10, 20}));
  EXPECT_FALSE(FileExists(RetainedPath(paths, 0)));
  EXPECT_TRUE(FileExists(RetainedPath(paths, 10)));
  EXPECT_TRUE(FileExists(RetainedPath(paths, 20)));

  // A checkpoint with nothing new to publish must not duplicate history.
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->retained_snapshots(), (std::vector<uint64_t>{10, 20}));

  // Every retained file is a complete point-in-time state: loading it
  // reproduces the engine exactly as it stood at that seq.
  for (uint64_t seq : store->retained_snapshots()) {
    auto past =
        DurableStore::LoadPointInTime(RetainedPath(paths, seq), TestOptions());
    ASSERT_TRUE(past.ok()) << past.status().ToString();
    EXPECT_EQ(EngineFingerprint(*past),
              EngineFingerprint(ReferenceRun(world, seq)));
  }

  for (uint64_t seq : {uint64_t{0}, uint64_t{10}, uint64_t{20}}) {
    std::remove(RetainedPath(paths, seq).c_str());
  }
  CleanUp(paths);
}

TEST(StoreTest, RetainedSnapshotsSurviveReopenAndCreateClearsThem) {
  TestWorld world = MakeWorld(40, 110);
  const StorePaths paths = MakeStorePaths("retention_reopen");
  StoreOptions options = MakeStoreOptions();
  options.keep_snapshots = 4;

  {
    auto store =
        DurableStore::Create(world.graph, paths.snapshot, paths.wal, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(store->Apply(world.ops[i]).ok());
      if ((i + 1) % 5 == 0) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
    }
    // keep_snapshots = 4 → the live file plus the three newest rotations.
    EXPECT_EQ(store->retained_snapshots(), (std::vector<uint64_t>{5, 10, 15}));
  }

  // Open rediscovers the rotation history by directory scan.
  auto reopened = DurableStore::Open(paths.snapshot, paths.wal, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->retained_snapshots(),
            (std::vector<uint64_t>{5, 10, 15}));

  // Reopening with a smaller window shrinks history at the next rotation.
  StoreOptions narrow = options;
  narrow.keep_snapshots = 2;
  auto narrowed = DurableStore::Open(paths.snapshot, paths.wal, narrow);
  ASSERT_TRUE(narrowed.ok()) << narrowed.status().ToString();
  for (size_t i = 20; i < 25; ++i) {
    ASSERT_TRUE(narrowed->Apply(world.ops[i]).ok());
  }
  ASSERT_TRUE(narrowed->Checkpoint().ok());
  EXPECT_EQ(narrowed->retained_snapshots(), (std::vector<uint64_t>{20}));
  EXPECT_FALSE(FileExists(RetainedPath(paths, 0)));
  EXPECT_FALSE(FileExists(RetainedPath(paths, 15)));

  // A fresh Create at the same paths must not inherit the old history.
  auto recreated =
      DurableStore::Create(world.graph, paths.snapshot, paths.wal, options);
  ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
  EXPECT_TRUE(recreated->retained_snapshots().empty());
  EXPECT_FALSE(FileExists(RetainedPath(paths, 20)));

  CleanUp(paths);
}

TEST(StoreTest, DefaultRetentionKeepsOnlyTheLiveSnapshot) {
  TestWorld world = MakeWorld(20, 111);
  const StorePaths paths = MakeStorePaths("retention_default");
  auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                    MakeStoreOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->Apply(world.ops[i]).ok());
    if ((i + 1) % 5 == 0) {
      ASSERT_TRUE(store->Checkpoint().ok());
    }
  }
  EXPECT_TRUE(store->retained_snapshots().empty());
  EXPECT_FALSE(FileExists(RetainedPath(paths, 0)));
  EXPECT_FALSE(FileExists(RetainedPath(paths, 5)));
  CleanUp(paths);
}

}  // namespace
}  // namespace dkc
