// Durability tests for src/store: CRC known answers, WAL torn-tail vs
// corruption semantics, snapshot round-trip/validation, and the kill-point
// harness — for every injected crash state (mid-WAL-append, mid-snapshot
// write, fully-written-but-unrenamed snapshot, between snapshot publish and
// WAL compaction), recovery must yield an engine byte-identical to the one
// that never crashed, and any bit-flipped record must be rejected as
// Corruption, never loaded.

#include "store/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/verify.h"
#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "io/atomic_file.h"
#include "io/solution_io.h"
#include "store/crc32.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "test_util.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dkc {
namespace {

// The pid prefix keeps concurrent test processes sharing TEST_TMPDIR from
// clobbering each other's files.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
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

/// Reference run that never touches disk: Build + ApplyBatch over
/// ops[0..count) in epochs of `epoch` updates.
/// Epoch boundaries are part of the stream, so recovery of a batched store
/// must be compared against the same `epoch`.
DynamicSolver ReferenceRun(const TestWorld& world, size_t count,
                           size_t epoch = 1) {
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

/// One update as a one-op epoch, the store's form of a single update.
std::span<const UpdateOp> OneOp(const UpdateOp& op) { return {&op, 1}; }

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

/// The textbook one-bit-at-a-time CRC-32 — the oracle the table-driven
/// Crc32 must match value for value.
uint32_t ReferenceCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (char ch : data) {
    c ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& ch : bytes) ch = static_cast<char>(rng.Next() & 0xFF);
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..256 cover the empty input, the pure bytewise tail (< 8),
  // and many 8-byte strides with every tail length; offsets 0..7 start
  // the word loop at every alignment.
  const std::string bytes = RandomBytes(256 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const std::string_view data(bytes.data() + offset, len);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, ChainingAtRandomSplitsMatchesOnePass) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string bytes =
        RandomBytes(rng.NextBounded(4096) + 1, 100 + trial);
    const size_t split = rng.NextBounded(bytes.size() + 1);
    const std::string_view all(bytes), a = all.substr(0, split),
                           b = all.substr(split);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32(b, Crc32(a)), ReferenceCrc32(all)) << "split " << split;
    ASSERT_EQ(Crc32(b, Crc32(a, seed)), ReferenceCrc32(all, seed));
  }
}

TEST(Crc32Test, CombineMatchesConcatenation) {
  // Crc32Combine(Crc32(a), Crc32(b), |b|) == Crc32(a + b): empty halves,
  // every short length, random splits of buffers up to a few MB, and
  // chains folding many pieces in a row.
  const std::string bytes = RandomBytes(3 << 20, 7);
  const std::string_view all(bytes);
  for (size_t len : {size_t{0}, size_t{1}, size_t{100}}) {
    const std::string_view data = all.substr(0, len);
    ASSERT_EQ(Crc32Combine(Crc32(data), Crc32(""), 0), Crc32(data));
    ASSERT_EQ(Crc32Combine(Crc32(""), Crc32(data), len), Crc32(data));
  }
  for (size_t len = 0; len <= 64; ++len) {
    for (size_t split = 0; split <= len; ++split) {
      const std::string_view a = all.substr(0, split),
                             b = all.substr(split, len - split);
      ASSERT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()),
                Crc32(all.substr(0, len)))
          << "length " << len << " split " << split;
    }
  }
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t len = rng.NextBounded(bytes.size() + 1);
    const size_t split = rng.NextBounded(len + 1);
    const std::string_view a = all.substr(0, split),
                           b = all.substr(split, len - split);
    ASSERT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()),
              Crc32(all.substr(0, len)))
        << "length " << len << " split " << split;
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng cuts(seed);
    uint32_t chained = 0;
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t piece =
          std::min<size_t>(cuts.NextBounded(1 << 18), bytes.size() - at);
      chained = Crc32Combine(chained, Crc32(all.substr(at, piece)), piece);
      at += piece;
    }
    ASSERT_EQ(chained, Crc32(all)) << "seed " << seed;
  }
}

TEST(Crc32Test, ChunkedMatchesOnePassAtAnyPool) {
  // Block boundaries at every edge case, full four-block groups with and
  // without a partial tail, a 3 MB buffer, and one long enough that a
  // 4-thread pool's chunks hold whole four-block groups, each with and
  // without a seed.
  const std::string bytes = RandomBytes(5 << 20, 11);
  const std::string_view all(bytes);
  constexpr size_t kBlock = kCrc32BlockBytes;
  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    SCOPED_TRACE(pool == nullptr ? 0 : pool->num_threads());
    for (size_t len : {size_t{0}, size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                       3 * kBlock + 7, 4 * kBlock, 5 * kBlock + 3,
                       size_t{3} << 20, bytes.size()}) {
      const std::string_view data = all.substr(0, len);
      for (uint32_t seed : {0u, 0x9E3779B9u}) {
        ASSERT_EQ(Crc32Chunked(data, pool, seed), Crc32(data, seed))
            << "length " << len << " seed " << seed;
      }
    }
  }
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

/// One record as a one-op epoch — exactly what a one-update ApplyBatch
/// appends.
std::string EncodeOne(const WalRecord& rec) {
  return EncodeWalGroup(std::span(&rec, 1));
}

TEST(WalTest, DirectoryPathIsIOError) {
  EXPECT_EQ(ReadWal(::testing::TempDir()).status().code(),
            Status::Code::kIOError);
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
      ASSERT_TRUE(writer->AppendGroup(std::span(&rec, 1)).ok());
    }
  }
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->records.size(), 5u);
  ASSERT_EQ(result->segments.size(), 5u);  // five one-op epochs
  EXPECT_EQ(result->valid_bytes, 5 * kWalRecordBytes);
  EXPECT_FALSE(result->torn_tail);
  const auto expected = MakeRecords(5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result->segments[i].first, i);
    EXPECT_EQ(result->segments[i].count, 1u);
    EXPECT_EQ(result->records[i].seq, expected[i].seq);
    EXPECT_EQ(result->records[i].is_insert, expected[i].is_insert);
    EXPECT_EQ(result->records[i].u, expected[i].u);
    EXPECT_EQ(result->records[i].v, expected[i].v);
  }
  std::remove(path.c_str());
}

TEST(WalTest, OneOpEpochMatchesTheBareRecordFormat) {
  // The bare record the previous format wrote for "insert (0, 1000)" at
  // seq 1, captured from a WAL that format wrote: op 1, u, v, seq, CRC,
  // little-endian. A one-op epoch is the same 21 bytes, so such logs
  // replay unchanged.
  const std::string golden(
      "\x01\x00\x00\x00\x00\xe8\x03\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x77\x29\x98\x55",
      kWalRecordBytes);
  WalRecord rec;
  rec.seq = 1;
  rec.is_insert = true;
  rec.u = 0;
  rec.v = 1000;
  EXPECT_EQ(EncodeOne(rec), golden);

  const std::string path = TempPath("dkc_wal_golden.wal");
  WriteFileBytes(path, golden);
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->records.size(), 1u);
  ASSERT_EQ(result->segments.size(), 1u);
  EXPECT_EQ(result->segments[0].count, 1u);
  EXPECT_EQ(result->records[0].seq, 1u);
  EXPECT_TRUE(result->records[0].is_insert);
  EXPECT_EQ(result->records[0].u, 0u);
  EXPECT_EQ(result->records[0].v, 1000u);
  EXPECT_EQ(result->valid_bytes, kWalRecordBytes);
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
  const Status failed =
      writer->AppendGroup(std::span(records).first(1), /*sync=*/true);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), Status::Code::kIOError);
  EXPECT_FALSE(writer->poisoned().ok());
  // Poisoned: the next append fails up front with the original error,
  // without touching the file.
  EXPECT_EQ(
      writer->AppendGroup(std::span(records).last(1), /*sync=*/false)
          .ToString(),
      failed.ToString());
  EXPECT_EQ(writer->Sync().ToString(), failed.ToString());
}

TEST(WalTest, TornTailAtEveryCutPointTruncates) {
  // A crash mid-append leaves 1..20 bytes of the final record. Every cut
  // must be recognized as torn (not Corruption), keeping the two complete
  // records before it.
  const auto records = MakeRecords(3);
  std::string intact;
  intact += EncodeOne(records[0]);
  intact += EncodeOne(records[1]);
  const std::string last = EncodeOne(records[2]);
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
  const std::string clean = EncodeWalGroup(records);
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
  for (const auto& rec : records) bytes += EncodeOne(rec);
  const std::string path = TempPath("dkc_wal_gap.wal");
  WriteFileBytes(path, bytes);
  auto result = ReadWal(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ WAL epochs ---

TEST(WalTest, EpochRoundTripYieldsOneSegmentPerAppend) {
  const auto records = MakeRecords(6);
  const std::string path = TempPath("dkc_wal_group.wal");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    // one-op, four-op, one-op epochs in one log.
    ASSERT_TRUE(writer->AppendGroup(std::span(records).subspan(0, 1)).ok());
    ASSERT_TRUE(writer->AppendGroup(std::span(records).subspan(1, 4)).ok());
    ASSERT_TRUE(writer->AppendGroup(std::span(records).subspan(5, 1)).ok());
  }
  const std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), 6 * kWalRecordBytes);  // no commit marker
  // Op bytes: every record but an epoch's last carries "continues".
  const uint8_t expected_ops[6] = {0, 3, 3, 2, 1, 1};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(bytes[i * kWalRecordBytes]),
              expected_ops[i])
        << "record " << i;
  }
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->records.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result->records[i].seq, records[i].seq);
    EXPECT_EQ(result->records[i].is_insert, records[i].is_insert);
    EXPECT_EQ(result->records[i].u, records[i].u);
    EXPECT_EQ(result->records[i].v, records[i].v);
  }
  ASSERT_EQ(result->segments.size(), 3u);
  EXPECT_EQ(result->segments[0].count, 1u);
  EXPECT_EQ(result->segments[1].first, 1u);
  EXPECT_EQ(result->segments[1].count, 4u);
  EXPECT_EQ(result->segments[2].first, 5u);
  EXPECT_EQ(result->segments[2].count, 1u);
  EXPECT_FALSE(result->torn_tail);
  EXPECT_FALSE(result->torn_group);
  EXPECT_EQ(result->valid_bytes, 6 * kWalRecordBytes);
  std::remove(path.c_str());
}

TEST(WalTest, TornEpochAtEveryCutPointRecoversToEpochBoundary) {
  // Intact prefix: a one-op epoch and a three-op epoch. Then a crash
  // lands at every possible byte offset inside the next epoch's records,
  // the closing one included. Every cut must recover to the epoch
  // boundary: the open epoch's records are dropped even when they are
  // individually complete and CRC-clean.
  const auto records = MakeRecords(8);
  std::string intact = EncodeOne(records[0]);
  intact += EncodeWalGroup(std::span(records).subspan(1, 3));
  const std::string frame = EncodeWalGroup(std::span(records).subspan(4, 4));
  ASSERT_EQ(frame.size(), 4 * kWalRecordBytes);
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
    // The recovery cut restores a clean log of whole epochs.
    ASSERT_TRUE(TruncateWal(path, result->valid_bytes).ok());
    auto again = ReadWal(path);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->torn_tail);
    EXPECT_FALSE(again->torn_group);
    EXPECT_EQ(again->records.size(), 4u);
  }
  // The whole epoch lands: it becomes durable.
  WriteFileBytes(path, intact + frame);
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 8u);
  ASSERT_EQ(result->segments.size(), 3u);
  EXPECT_EQ(result->segments[2].count, 4u);
  std::remove(path.c_str());
}

TEST(WalTest, EpochFramingViolationsAreCorruption) {
  const auto records = MakeRecords(6);
  const std::string path = TempPath("dkc_wal_groupbad.wal");
  const std::string first = EncodeWalGroup(std::span(records).first(3));
  const std::string second = EncodeWalGroup(std::span(records).subspan(3, 3));
  const size_t rec_bytes = kWalRecordBytes;
  const auto expect_corruption = [&](const std::string& bytes) {
    WriteFileBytes(path, bytes);
    auto result = ReadWal(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption)
        << result.status().ToString();
  };

  // A record dropped from the middle of an epoch: seqs 1, 3 — a gap.
  expect_corruption(first.substr(0, rec_bytes) + first.substr(2 * rec_bytes));
  // An epoch's closing record dropped before the next epoch: seqs 1, 2,
  // then 4 — a gap, not a merge of the two epochs.
  expect_corruption(first.substr(0, 2 * rec_bytes) + second);
  // A bit flip inside a continuing record is caught by its CRC.
  {
    std::string bytes = first;
    bytes[rec_bytes + 5] = static_cast<char>(bytes[rec_bytes + 5] ^ 0x20);
    expect_corruption(bytes);
  }
  // An op byte with a reserved bit set, under a valid CRC.
  {
    std::string bytes = first;
    bytes[0] = static_cast<char>(bytes[0] | 0x08);
    const uint32_t crc = Crc32(std::string_view(bytes.data(), rec_bytes - 4));
    for (int i = 0; i < 4; ++i) {
      bytes[rec_bytes - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    expect_corruption(bytes);
  }
  std::remove(path.c_str());
}

TEST(WalTest, PreviousFormatGroupFrameIsRefusedUntouched) {
  // A two-op epoch as the previous format framed it, captured from a WAL
  // that format wrote: members "i 0 1000" (op 3) and "d 0 1000" (op 2),
  // then a commit marker (op 4, u = member count, seq = the last
  // member's). The marker is no record type of this format: the store
  // refuses the log as Corruption and leaves the file as it was.
  const std::string legacy(
      "\x03\x00\x00\x00\x00\xe8\x03\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
      "\xb0\xb9\xa4\x81"
      "\x02\x00\x00\x00\x00\xe8\x03\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
      "\x10\x75\x8d\x88"
      "\x04\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
      "\x6c\xf4\x62\x7f",
      3 * kWalRecordBytes);
  const std::string path = TempPath("dkc_wal_legacy_group.wal");
  WriteFileBytes(path, legacy);
  auto result = ReadWal(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  EXPECT_NE(result.status().ToString().find("unknown record type 4"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(ReadFileBytes(path), legacy);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- snapshot ---

/// Runs `load(pool)` serially and on 1- and 4-thread pools. Every run must
/// be refused, the pooled ones with the serial run's code and message;
/// returns the serial status.
template <typename Load>
Status ExpectRefusedAlikeOnPools(Load load) {
  static ThreadPool one(1), four(4);
  const Status serial = load(nullptr);
  EXPECT_FALSE(serial.ok());
  for (ThreadPool* pool : {&one, &four}) {
    const Status pooled = load(pool);
    EXPECT_EQ(pooled.code(), serial.code()) << pool->num_threads();
    EXPECT_EQ(pooled.message(), serial.message()) << pool->num_threads();
  }
  return serial;
}

Status ReadSnapshotRefusal(const std::string& path) {
  return ExpectRefusedAlikeOnPools(
      [&](ThreadPool* pool) { return ReadSnapshot(path, pool).status(); });
}

Status DeserializeRefusal(std::string_view graph_bytes,
                          std::string_view state_bytes) {
  return ExpectRefusedAlikeOnPools([&](ThreadPool* pool) {
    return SolutionState::Deserialize(graph_bytes, state_bytes, pool)
        .status();
  });
}

/// The restored state of `path`, serialized, after checking that a load
/// on a 4-thread pool restores the same bytes.
std::string LoadedStateBytes(const std::string& path) {
  ThreadPool pool(4);
  auto serial = ReadSnapshot(path);
  auto pooled = ReadSnapshot(path, &pool);
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_TRUE(pooled.ok()) << pooled.status().ToString();
  if (!serial.ok() || !pooled.ok()) return "";
  std::string serial_bytes, pooled_bytes;
  serial->state->SerializeGraphTo(&serial_bytes);
  serial->state->SerializeStateTo(&serial_bytes);
  pooled->state->SerializeGraphTo(&pooled_bytes);
  pooled->state->SerializeStateTo(&pooled_bytes);
  EXPECT_EQ(serial_bytes, pooled_bytes);
  EXPECT_EQ(serial->meta.applied_seq, pooled->meta.applied_seq);
  return serial_bytes;
}

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
  EXPECT_EQ(ReadSnapshotRefusal(TempPath("dkc_snap_missing.bin")).code(),
            Status::Code::kIOError);
}

TEST(SnapshotTest, DirectoryPathIsIOError) {
  EXPECT_EQ(ReadSnapshotRefusal(::testing::TempDir()).code(),
            Status::Code::kIOError);
}

TEST(SnapshotTest, GoldenSnapshotBytesAreFrozen) {
  // The on-disk format is frozen at version 1: a fixed state must encode
  // to the same bytes whatever writer or CRC implementation produced
  // them. The pinned size and whole-file CRC are the version-1 writer's
  // output for these states; the trailer is re-checked against the
  // bitwise reference so the pin does not lean on Crc32 itself.
  struct Golden {
    size_t ops;
    uint64_t seed;
    size_t size;
    uint32_t crc;
  };
  for (const Golden& golden : {Golden{0, 91, 2207, 0xD7ADC435u},
                               Golden{40, 94, 3450, 0xD03BD2D9u}}) {
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    TestWorld world = MakeWorld(golden.ops, golden.seed);
    DynamicSolver solver = ReferenceRun(world, golden.ops);
    EXPECT_EQ(solver.state().SerializedBytes(),
              EngineFingerprint(solver).size());
    const std::string path = TempPath("dkc_snap_golden.bin");
    ASSERT_TRUE(WriteSnapshot(solver.state(), golden.ops, path).ok());
    const std::string bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 4u);
    const std::string_view body(bytes.data(), bytes.size() - 4);
    ByteReader tail(std::string_view(bytes).substr(body.size()));
    const uint32_t stored_crc = tail.U32();
    EXPECT_EQ(bytes.size(), golden.size);
    EXPECT_EQ(stored_crc, golden.crc);
    EXPECT_EQ(ReferenceCrc32(body), stored_crc);
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, PooledWriteAndLoadAreByteIdentical) {
  // The golden states, then a WS 20000 state after churn, large enough
  // that every pooled pass splits across workers: a pooled write must
  // produce the serial write's file, and a pooled load its state.
  ThreadPool pool(4);
  const std::string serial_path = TempPath("dkc_snap_serial.bin");
  const std::string pooled_path = TempPath("dkc_snap_pooled.bin");
  const auto check = [&](const DynamicSolver& solver, uint64_t seq) {
    ASSERT_TRUE(WriteSnapshot(solver.state(), seq, serial_path).ok());
    ASSERT_TRUE(WriteSnapshot(solver.state(), seq, pooled_path, &pool).ok());
    EXPECT_EQ(ReadFileBytes(serial_path), ReadFileBytes(pooled_path));
    EXPECT_EQ(LoadedStateBytes(pooled_path), EngineFingerprint(solver));
  };
  for (const auto& [ops, seed] : {std::pair<size_t, uint64_t>{0, 91},
                                  std::pair<size_t, uint64_t>{40, 94}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TestWorld world = MakeWorld(ops, seed);
    check(ReferenceRun(world, ops), ops);
  }
  Rng rng(20000);
  auto ws = WattsStrogatz(20000, 12, 0.1, rng);
  ASSERT_TRUE(ws.ok());
  DynamicOptions options;
  options.k = 4;
  auto solver = DynamicSolver::Build(*ws, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  const std::vector<UpdateOp> churn = MakeChurnStream(*ws, 2048, rng);
  const std::span<const UpdateOp> all(churn);
  for (size_t i = 0; i < all.size(); i += 64) {
    ASSERT_TRUE(solver->ApplyBatch(all.subspan(i, 64)).ok());
  }
  ASSERT_GT(EngineFingerprint(*solver).size(), 8 * kCrc32BlockBytes);
  check(*solver, churn.size());
  std::remove(serial_path.c_str());
  std::remove(pooled_path.c_str());
}

TEST(SnapshotTest, BitFlipAnywhereIsCorruption) {
  TestWorld world = MakeWorld(0, 92);
  DynamicSolver original = ReferenceRun(world, 0);
  const std::string path = TempPath("dkc_snap_bitflip.bin");
  ASSERT_TRUE(WriteSnapshot(original.state(), 3, path).ok());
  const std::string clean = ReadFileBytes(path);
  ASSERT_GT(clean.size(), 24u);

  // Flip one bit in every byte of the file header and the first section
  // (its header and the meta payload), then at a stride of byte positions
  // covering every other section and the trailing CRC. The whole-file
  // checksum must catch all of them — a damaged snapshot is never loaded
  // — and it is checked before anything but the magic, so it is what
  // every flip past the magic reports.
  const size_t stride = std::max<size_t>(1, clean.size() / 211);
  for (size_t i = 0; i < clean.size(); i += i < 64 ? 1 : stride) {
    std::string damaged = clean;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x04);
    WriteFileBytes(path, damaged);
    const Status result = ReadSnapshotRefusal(path);
    ASSERT_FALSE(result.ok()) << "byte " << i << " of " << clean.size();
    EXPECT_EQ(result.code(), Status::Code::kCorruption) << "byte " << i;
    const std::string expected =
        i < 8 ? "bad magic" : "whole-file checksum mismatch";
    EXPECT_NE(result.message().find(expected), std::string::npos)
        << "byte " << i << ": " << result.ToString();
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SlotFlagByteCarriesIncompleteAndRefusesTheRest) {
  // Each solution slot's first state-blob byte is bit 0 = alive, bit 1 =
  // incomplete (a cut rebuild). Snapshots written before the incomplete
  // bit existed hold 0/1 and load unchanged; a reserved bit, or
  // incomplete on a dead slot, is Corruption.
  // Two triangles, both packed, then the first removed: slot 0 is dead,
  // slot 1 alive and complete.
  GraphBuilder builder;
  for (const NodeId base : {0u, 3u}) {
    builder.AddEdge(base, base + 1);
    builder.AddEdge(base, base + 2);
    builder.AddEdge(base + 1, base + 2);
  }
  const Graph g = builder.Build();
  SolutionState state(DynamicGraph(g), 3, std::vector<Count>(6, 1));
  const NodeId first[] = {0, 1, 2};
  const NodeId second[] = {3, 4, 5};
  const uint32_t removed = state.AddSolutionClique(first);
  state.AddSolutionClique(second);
  state.RemoveSolutionClique(removed);
  std::string graph_bytes, state_bytes;
  state.SerializeGraphTo(&graph_bytes);
  state.SerializeStateTo(&state_bytes);

  // Walk the clique table: version, k, n, scores, node_to_clique, count.
  ByteReader reader(state_bytes);
  reader.U32();
  reader.U32();
  const uint64_t n = reader.U64();
  for (uint64_t i = 0; i < n; ++i) reader.U64();
  for (uint64_t i = 0; i < n; ++i) reader.U32();
  const uint64_t num_slots = reader.U64();
  std::optional<size_t> alive_at, dead_at;
  uint32_t alive_slot = 0;
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    const size_t at = state_bytes.size() - reader.remaining();
    const uint8_t flags = reader.U8();
    ASSERT_LE(flags, 1u);
    if (flags == 1 && !alive_at) {
      alive_at = at;
      alive_slot = slot;
    }
    if (flags == 0 && !dead_at) dead_at = at;
    reader.U32();
    const uint32_t nodes = reader.U32();
    for (uint32_t i = 0; i < nodes; ++i) reader.U32();
    const uint64_t refs = reader.U64();
    for (uint64_t i = 0; i < refs; ++i) reader.U64();
  }
  ASSERT_FALSE(reader.failed());
  ASSERT_TRUE(alive_at.has_value());
  ASSERT_TRUE(dead_at.has_value());

  const auto load = [&](size_t at, uint8_t flags) {
    std::string bytes = state_bytes;
    bytes[at] = static_cast<char>(flags);
    return SolutionState::Deserialize(graph_bytes, bytes);
  };
  auto incomplete = load(*alive_at, 3);
  ASSERT_TRUE(incomplete.ok()) << incomplete.status().ToString();
  EXPECT_TRUE((*incomplete)->SlotIncomplete(alive_slot));
  EXPECT_FALSE(state.SlotIncomplete(alive_slot));
  for (const auto& [at, flags] :
       {std::pair{*dead_at, uint8_t{2}}, std::pair{*alive_at, uint8_t{5}},
        std::pair{*dead_at, uint8_t{0x80}}}) {
    std::string bytes = state_bytes;
    bytes[at] = static_cast<char>(flags);
    const Status refused = DeserializeRefusal(graph_bytes, bytes);
    ASSERT_FALSE(refused.ok()) << "flags " << int{flags};
    EXPECT_EQ(refused.code(), Status::Code::kCorruption);
  }
}

// One (idx, gen) candidate reference in a state blob and its byte offset.
struct BlobRef {
  size_t at = 0;
  uint32_t idx = 0;
  uint32_t gen = 0;
};

BlobRef ReadBlobRef(std::string_view state_bytes, ByteReader* reader) {
  BlobRef ref;
  ref.at = state_bytes.size() - reader->remaining();
  ref.idx = reader->U32();
  ref.gen = reader->U32();
  return ref;
}

// A reader over `state_bytes` positioned at the candidate table's count,
// past version, k, n, scores, node_to_clique, the clique table and its
// free-slot stack. `slot_refs`, when given, receives each alive slot's
// candidate references (dead slots map to empty lists).
ByteReader ReaderAtCandidateTable(
    std::string_view state_bytes,
    std::vector<std::vector<BlobRef>>* slot_refs = nullptr) {
  ByteReader reader(state_bytes);
  reader.U32();
  reader.U32();
  const uint64_t n = reader.U64();
  for (uint64_t i = 0; i < n; ++i) reader.U64();
  for (uint64_t i = 0; i < n; ++i) reader.U32();
  const uint64_t num_slots = reader.U64();
  for (uint64_t slot = 0; slot < num_slots; ++slot) {
    const bool alive = (reader.U8() & 1) != 0;
    reader.U32();
    const uint32_t nodes = reader.U32();
    for (uint32_t i = 0; i < nodes; ++i) reader.U32();
    const uint64_t refs = reader.U64();
    if (slot_refs != nullptr) slot_refs->emplace_back();
    for (uint64_t i = 0; i < refs; ++i) {
      const BlobRef ref = ReadBlobRef(state_bytes, &reader);
      if (slot_refs != nullptr && alive) slot_refs->back().push_back(ref);
    }
  }
  const uint64_t free_slots = reader.U64();
  for (uint64_t i = 0; i < free_slots; ++i) reader.U32();
  return reader;
}

TEST(SnapshotTest, CandidateThatIsNotACliqueIsRefused) {
  // The load-time candidate check probes only pairs with a free node and
  // takes the owner's pairs as proven, so rewrite one alive candidate
  // node in the state blob to break each kind of pair it must still see.
  // Triangle {0,1,2} is packed; free 3 ~ {0,1,4} and free 4 ~ {0,3} make
  // candidates {0,1,3} and {0,3,4}; free 5 ~ {0} only.
  GraphBuilder builder;
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1}, {0, 2}, {1, 2},
                             {0, 3}, {1, 3}, {0, 4}, {3, 4}, {0, 5}}) {
    builder.AddEdge(u, v);
  }
  const Graph g = builder.Build();
  SolutionState state(DynamicGraph(g), 3, std::vector<Count>(6, 1));
  const NodeId packed[] = {0, 1, 2};
  state.AddSolutionClique(packed);
  state.RebuildAllCandidates();
  ASSERT_EQ(state.num_alive_candidates(), 2u);
  std::string graph_bytes, state_bytes;
  state.SerializeGraphTo(&graph_bytes);
  state.SerializeStateTo(&state_bytes);
  ASSERT_TRUE(SolutionState::Deserialize(graph_bytes, state_bytes).ok());

  ByteReader reader = ReaderAtCandidateTable(state_bytes);
  // Byte offset of each alive candidate's node, keyed by the sorted node
  // set and the node id.
  std::map<std::vector<NodeId>, std::map<NodeId, size_t>> node_at;
  const uint64_t num_cands = reader.U64();
  for (uint64_t c = 0; c < num_cands; ++c) {
    const bool alive = reader.U8() != 0;
    reader.U32();
    reader.U32();
    reader.U64();
    const uint32_t nodes = reader.U32();
    std::vector<NodeId> members;
    std::map<NodeId, size_t> offsets;
    for (uint32_t i = 0; i < nodes; ++i) {
      const size_t at = state_bytes.size() - reader.remaining();
      members.push_back(reader.U32());
      offsets[members.back()] = at;
    }
    std::sort(members.begin(), members.end());
    if (alive) node_at[members] = offsets;
  }
  ASSERT_FALSE(reader.failed());
  const std::vector<NodeId> owner_free{0, 1, 3}, two_free{0, 3, 4};
  ASSERT_EQ(node_at.count(owner_free), 1u);
  ASSERT_EQ(node_at.count(two_free), 1u);

  struct Rewrite {
    const char* what;
    std::vector<NodeId> cand;
    NodeId from, to;
  };
  for (const Rewrite& rewrite :
       {Rewrite{"free node not adjacent to an owner node", owner_free, 3, 5},
        Rewrite{"two free nodes not adjacent", two_free, 4, 5},
        Rewrite{"owner node repeated", owner_free, 1, 0}}) {
    SCOPED_TRACE(rewrite.what);
    std::string bytes = state_bytes;
    const size_t at = node_at[rewrite.cand].at(rewrite.from);
    std::string id;
    PutU32(&id, rewrite.to);
    bytes.replace(at, id.size(), id);
    const Status refused = DeserializeRefusal(graph_bytes, bytes);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), Status::Code::kCorruption);
    EXPECT_NE(refused.message().find("candidate is not a clique"),
              std::string::npos)
        << refused.ToString();
  }
}

// Rewrites the snapshot file at `path` with section `id`'s payload
// replaced by `payload`, resealing that section's CRC and the whole-file
// CRC, so the edit reaches the loader's semantic checks.
void ReplaceSectionAndReseal(const std::string& path, uint32_t id,
                             const std::string& payload) {
  const std::string clean = ReadFileBytes(path);
  ByteReader reader(std::string_view(clean).substr(8));
  const uint32_t version = reader.U32();
  const uint32_t count = reader.U32();
  std::string file = clean.substr(0, 8);
  PutU32(&file, version);
  PutU32(&file, count);
  for (uint32_t s = 0; s < count; ++s) {
    const uint32_t section = reader.U32();
    const uint64_t size = reader.U64();
    reader.U32();
    const size_t at = clean.size() - reader.remaining();
    std::string body = clean.substr(at, static_cast<size_t>(size));
    for (uint64_t i = 0; i < size; ++i) reader.U8();
    if (section == id) body = payload;
    PutU32(&file, section);
    PutU64(&file, body.size());
    PutU32(&file, Crc32(body));
    file += body;
  }
  ASSERT_FALSE(reader.failed());
  PutU32(&file, Crc32(file));
  WriteFileBytes(path, file);
}

constexpr uint32_t kGraphSection = 2;
constexpr uint32_t kStateSection = 3;

TEST(SnapshotTest, CandidateOfWrongSizeIsRefused) {
  // Triangle {0,1,2} is packed at k=3 and free 3 ~ {0,1} makes candidate
  // {0,1,3}. Dropping node 1 from it leaves {3,0}: still a clique with one
  // free node, but a 2-node candidate that a swap would pack as a short
  // "clique". The loader must refuse it like a solution clique of the
  // wrong size.
  GraphBuilder builder;
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1}, {0, 2}, {1, 2},
                             {0, 3}, {1, 3}}) {
    builder.AddEdge(u, v);
  }
  const Graph g = builder.Build();
  SolutionState state(DynamicGraph(g), 3, std::vector<Count>(4, 1));
  const NodeId packed[] = {0, 1, 2};
  state.AddSolutionClique(packed);
  state.RebuildAllCandidates();
  ASSERT_EQ(state.num_alive_candidates(), 1u);
  const std::string path = TempPath("dkc_snap_short_cand.bin");
  ASSERT_TRUE(WriteSnapshot(state, 0, path).ok());
  ASSERT_TRUE(ReadSnapshot(path).ok());
  std::string state_bytes;
  state.SerializeStateTo(&state_bytes);

  ByteReader reader = ReaderAtCandidateTable(state_bytes);
  ASSERT_EQ(reader.U64(), 1u);  // one candidate slot
  ASSERT_EQ(reader.U8(), 1u);   // alive
  reader.U32();
  reader.U32();
  reader.U64();
  const size_t count_at = state_bytes.size() - reader.remaining();
  ASSERT_EQ(reader.U32(), 3u);
  std::vector<NodeId> members;
  for (int i = 0; i < 3; ++i) members.push_back(reader.U32());
  ASSERT_FALSE(reader.failed());
  std::vector<NodeId> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted, (std::vector<NodeId>{0, 1, 3}));

  std::string shortened = state_bytes.substr(0, count_at);
  PutU32(&shortened, 2);
  for (NodeId u : members) {
    if (u != 1) PutU32(&shortened, u);
  }
  shortened += state_bytes.substr(count_at + 16);
  ReplaceSectionAndReseal(path, kStateSection, shortened);
  const Status refused = ReadSnapshotRefusal(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), Status::Code::kCorruption);
  EXPECT_NE(refused.message().find("candidate of wrong size"),
            std::string::npos)
      << refused.ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, AsymmetricAdjacencyIsRefused) {
  // Edge {0,1} on three nodes: offsets 0,1,2,2 and entries 1,0. Moving the
  // second entry from row 1 to row 2 (offsets 0,1,1,2) gives row 0 = {1},
  // row 1 = {}, row 2 = {0}: every row is sorted and in range, and the
  // entry count is unchanged, but no row lists its mirror.
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.EnsureNode(2);
  const Graph g = builder.Build();
  ASSERT_EQ(g.num_nodes(), 3u);
  SolutionState state(DynamicGraph(g), 3, std::vector<Count>(3, 0));
  const std::string path = TempPath("dkc_snap_asymmetric.bin");
  ASSERT_TRUE(WriteSnapshot(state, 0, path).ok());
  ASSERT_TRUE(ReadSnapshot(path).ok());
  std::string graph_bytes;
  state.SerializeGraphTo(&graph_bytes);

  // Graph blob: version, n, entries, offsets[n + 1], neighbors.
  ByteReader reader(graph_bytes);
  reader.U32();
  ASSERT_EQ(reader.U64(), 3u);
  ASSERT_EQ(reader.U64(), 2u);
  const size_t offset2_at = 4 + 8 + 8 + 2 * 8;
  std::string asymmetric = graph_bytes;
  std::string one;
  PutU64(&one, 1);
  asymmetric.replace(offset2_at, one.size(), one);
  ReplaceSectionAndReseal(path, kGraphSection, asymmetric);
  const Status refused = ReadSnapshotRefusal(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), Status::Code::kCorruption);
  EXPECT_NE(refused.message().find("adjacency not symmetric"),
            std::string::npos)
      << refused.ToString();
  std::string state_bytes;
  state.SerializeStateTo(&state_bytes);
  const Status direct = DeserializeRefusal(asymmetric, state_bytes);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

// The candidate index of a state blob, mapped for forging: each alive
// slot's and each node's *valid* references (alive candidate, matching
// generation), with their byte offsets, and each candidate's nodes.
struct IndexMap {
  std::vector<std::vector<BlobRef>> slot_refs;
  std::vector<std::vector<BlobRef>> node_refs;
  std::vector<std::vector<NodeId>> cand_nodes;
};

IndexMap MapIndex(std::string_view state_bytes) {
  IndexMap map;
  ByteReader reader = ReaderAtCandidateTable(state_bytes, &map.slot_refs);
  std::vector<std::optional<uint32_t>> alive_gen;
  const uint64_t num_cands = reader.U64();
  for (uint64_t c = 0; c < num_cands; ++c) {
    const bool alive = reader.U8() != 0;
    const uint32_t gen = reader.U32();
    reader.U32();
    reader.U64();
    map.cand_nodes.emplace_back(reader.U32());
    for (NodeId& u : map.cand_nodes.back()) u = reader.U32();
    alive_gen.push_back(alive ? std::optional<uint32_t>(gen) : std::nullopt);
  }
  const uint64_t free_cands = reader.U64();
  for (uint64_t i = 0; i < free_cands; ++i) reader.U32();
  ByteReader header(state_bytes);
  header.U32();
  header.U32();
  const uint64_t num_nodes = header.U64();
  for (uint64_t u = 0; u < num_nodes; ++u) {
    map.node_refs.emplace_back();
    const uint64_t refs = reader.U64();
    for (uint64_t i = 0; i < refs; ++i) {
      map.node_refs.back().push_back(ReadBlobRef(state_bytes, &reader));
    }
  }
  reader.U64();
  reader.U64();
  reader.U64();
  EXPECT_TRUE(reader.AtEnd());
  const auto valid = [&](const BlobRef& ref) {
    return ref.idx < alive_gen.size() && alive_gen[ref.idx] == ref.gen;
  };
  for (auto* lists : {&map.slot_refs, &map.node_refs}) {
    for (auto& list : *lists) std::erase_if(list, std::not_fn(valid));
  }
  return map;
}

/// A snapshot of a WS 2000 state at k=4 after churn (so the lists hold
/// stale refs too) and its state blob, for the candidate-index forgeries.
struct IndexForgery {
  std::string path;
  std::string state_bytes;
  IndexMap map;

  explicit IndexForgery(const std::string& name) : path(TempPath(name)) {
    Rng rng(2000);
    auto ws = WattsStrogatz(2000, 12, 0.1, rng);
    EXPECT_TRUE(ws.ok());
    DynamicOptions options;
    options.k = 4;
    auto solver = DynamicSolver::Build(*ws, options);
    EXPECT_TRUE(solver.ok()) << solver.status().ToString();
    const std::vector<UpdateOp> churn = MakeChurnStream(*ws, 256, rng);
    const std::span<const UpdateOp> all(churn);
    for (size_t i = 0; i < all.size(); i += 16) {
      EXPECT_TRUE(solver->ApplyBatch(all.subspan(i, 16)).ok());
    }
    EXPECT_TRUE(WriteSnapshot(solver->state(), churn.size(), path).ok());
    EXPECT_TRUE(ReadSnapshot(path).ok());
    solver->state().SerializeStateTo(&state_bytes);
    map = MapIndex(state_bytes);
  }
  ~IndexForgery() { std::remove(path.c_str()); }

  /// Reseals the snapshot with the reference (idx, gen) written over
  /// `from`, and returns the load's refusal (the same at every pool size).
  Status Refusal(const BlobRef& from, uint32_t idx, uint32_t gen) const {
    std::string forged = state_bytes;
    std::string ref;
    PutU32(&ref, idx);
    PutU32(&ref, gen);
    forged.replace(from.at, ref.size(), ref);
    ReplaceSectionAndReseal(path, kStateSection, forged);
    return ReadSnapshotRefusal(path);
  }
};

void ExpectCorruption(const Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.ToString();
}

TEST(SnapshotTest, ForeignCandidateInOwnerListIsRefused) {
  // Slot a's first ref replaced by slot b's: CandidatesOf(a) would hand a
  // swap a candidate whose non-free nodes belong to b.
  IndexForgery forgery("dkc_snap_foreign_owner.bin");
  const auto& slots = forgery.map.slot_refs;
  std::vector<size_t> listed;
  for (size_t s = 0; s < slots.size() && listed.size() < 2; ++s) {
    if (!slots[s].empty()) listed.push_back(s);
  }
  ASSERT_EQ(listed.size(), 2u);
  const BlobRef& foreign = slots[listed[1]].front();
  ExpectCorruption(forgery.Refusal(slots[listed[0]].front(), foreign.idx,
                                   foreign.gen),
                   "owner list names a foreign candidate");
}

TEST(SnapshotTest, CandidateMissingFromItsOwnerListIsRefused) {
  // An alive candidate is dropped from its owner's list: once for a stale
  // ref (the next generation of the same slot), once for a second copy of
  // another of the owner's candidates.
  IndexForgery forgery("dkc_snap_missing_owner.bin");
  const std::vector<BlobRef>* two = nullptr;
  for (const auto& list : forgery.map.slot_refs) {
    if (list.size() >= 2) {
      two = &list;
      break;
    }
  }
  ASSERT_NE(two, nullptr);
  const BlobRef& dropped = (*two)[0];
  ExpectCorruption(forgery.Refusal(dropped, dropped.idx, dropped.gen + 1),
                   "alive candidate missing from its owner's list");
  ExpectCorruption(forgery.Refusal(dropped, (*two)[1].idx, (*two)[1].gen),
                   "owner list repeats a candidate");
}

TEST(SnapshotTest, NodeListThatDropsACandidateIsRefused) {
  // Node u's list drops its first alive candidate: for a stale ref, for a
  // second copy of its next one, then for a candidate that does not
  // contain u.
  IndexForgery forgery("dkc_snap_node_list.bin");
  const auto& nodes = forgery.map.node_refs;
  NodeId u = 0;
  while (u < nodes.size() && nodes[u].size() < 2) ++u;
  ASSERT_LT(u, nodes.size());
  const BlobRef& dropped = nodes[u][0];
  ExpectCorruption(forgery.Refusal(dropped, dropped.idx, dropped.gen + 1),
                   "alive candidate missing from a node list");
  ExpectCorruption(forgery.Refusal(dropped, nodes[u][1].idx, nodes[u][1].gen),
                   "node list repeats a candidate");
  const auto& slots = forgery.map.slot_refs;
  const BlobRef* outside = nullptr;
  for (const auto& list : slots) {
    for (const BlobRef& ref : list) {
      const auto& members = forgery.map.cand_nodes[ref.idx];
      if (outside == nullptr &&
          std::find(members.begin(), members.end(), u) == members.end()) {
        outside = &ref;
      }
    }
  }
  ASSERT_NE(outside, nullptr);
  ExpectCorruption(forgery.Refusal(dropped, outside->idx, outside->gen),
                   "node list names a candidate without the node");
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
    const Status result = ReadSnapshotRefusal(path);
    ASSERT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.code(), Status::Code::kCorruption)
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

/// Readers of `solver` see its current state: the published view carries
/// the engine's epoch and update count and exactly its solution.
void ExpectViewMatchesEngine(const DynamicSolver& solver) {
  const auto view = solver.published_view();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, solver.epoch());
  EXPECT_EQ(view->updates_applied, solver.updates_applied());
  EXPECT_EQ(SolutionToString(view->solution),
            SolutionToString(solver.Snapshot()));
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
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok()) << "op " << i;
      ExpectViewMatchesEngine(store->solver());  // Apply publishes too
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

  ExpectViewMatchesEngine(reopened->solver());
  for (size_t i = 30; i < world.ops.size(); ++i) {
    ASSERT_TRUE(reopened->ApplyBatch(OneOp(world.ops[i])).ok()) << "op " << i;
    ExpectViewMatchesEngine(reopened->solver());
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
    for (const auto& op : world.ops) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(op)).ok());
    }
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
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok());
    }
  }
  // Crash cut the 21st append short: only 9 of its 21 bytes hit the disk.
  WalRecord torn;
  torn.seq = 21;
  torn.is_insert = world.ops[20].is_insert;
  torn.u = world.ops[20].edge.first;
  torn.v = world.ops[20].edge.second;
  AppendFileBytes(paths.wal, EncodeOne(torn).substr(0, 9));

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
    ASSERT_TRUE(reopened->ApplyBatch(OneOp(world.ops[i])).ok()) << "op " << i;
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
    for (size_t i = 0; i < 15; ++i) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok());
    }
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
    for (size_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok());
    }
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
    for (size_t i = 0; i < 18; ++i) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok());
    }
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
    for (const auto& op : world.ops) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(op)).ok());
    }
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
  EXPECT_EQ(store->ApplyBatch(OneOp(bad_insert)).code(),
            Status::Code::kInvalidArgument);

  UpdateOp self_loop;
  self_loop.is_insert = true;
  self_loop.edge = {1, 1};
  EXPECT_EQ(store->ApplyBatch(OneOp(self_loop)).code(),
            Status::Code::kInvalidArgument);

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
  EXPECT_EQ(store->ApplyBatch(OneOp(bad_delete)).code(),
            Status::Code::kNotFound);

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
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok()) << "op " << i;
    }
    const size_t wal_bytes = ReadFileBytes(paths.wal).size();
    const std::string state = EngineFingerprint(store->solver());

    EXPECT_EQ(store->ApplyBatch(OneOp(huge)).code(),
              Status::Code::kInvalidArgument);
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
    for (const auto& op : world.ops) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(op)).ok());
    }
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

// ------------------------------------------------- store, batched epochs ---

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
      ExpectViewMatchesEngine(store->solver());  // published every epoch
    }
    EXPECT_EQ(store->applied_seq(), 32u);
    EXPECT_EQ(flushes, 4u);  // one WAL flush per epoch
  }

  // Recovery replays the four logged epochs as four epochs, so it is
  // byte-identical to the batched reference.
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->applied_seq(), 32u);
  EXPECT_EQ(reopened->replayed_records(), 32u);
  EXPECT_FALSE(reopened->recovered_torn_group());
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 32, kEpoch)));
  ExpectViewMatchesEngine(reopened->solver());

  // Continue batched to the end; still identical.
  for (size_t i = 32; i < 64; i += kEpoch) {
    ASSERT_TRUE(reopened->ApplyBatch(all.subspan(i, kEpoch)).ok());
    ExpectViewMatchesEngine(reopened->solver());
  }
  EXPECT_EQ(EngineFingerprint(reopened->solver()),
            EngineFingerprint(ReferenceRun(world, 64, kEpoch)));
  CleanUp(paths);
}

TEST(StoreTest, KillPointInsideGroupCommitWindowReplaysWholeEpoch) {
  // The crash-in-window state: the epoch's WAL records (closing record
  // included) are fully flushed, the engine never applied the epoch.
  // Recovery must replay the whole epoch — it survives.
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
            EngineFingerprint(ReferenceRun(world, 24, kEpoch)));
  CleanUp(paths);
}

TEST(StoreTest, KillPointAtEveryGroupFrameCutRecoversToEpochBoundary) {
  // The other half of the window: the crash cut the epoch's records
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
              EngineFingerprint(ReferenceRun(world, 12, kEpoch)));
    // The WAL was truncated to the boundary: the lost epoch re-applies.
    ASSERT_TRUE(reopened->ApplyBatch(all.subspan(12, kEpoch)).ok());
    EXPECT_EQ(reopened->applied_seq(), 18u);
    EXPECT_EQ(EngineFingerprint(reopened->solver()),
              EngineFingerprint(ReferenceRun(world, 18, kEpoch)));
  }
  CleanUp(paths);
}

TEST(StoreTest, GroupStraddlingSnapshotBoundaryIsCorruption) {
  // Checkpoints land only at epoch boundaries, so a snapshot seq strictly
  // inside a logged epoch cannot come from a crash — refuse to guess.
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
  // A fabricated epoch [3, 6] straddles the snapshot's seq 4.
  AppendFileBytes(paths.wal, EncodeWalGroup(GroupRecords(world, 2, 4)));
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kCorruption);
  CleanUp(paths);
}

TEST(StoreTest, MixedEpochSizesReplayAsTheEpochsThatWroteThem) {
  // A log interleaving one-op and larger epochs must replay each segment
  // as the epoch that wrote it (batch boundaries are part of the
  // stream).
  TestWorld world = MakeWorld(20, 114);
  const StorePaths paths = MakeStorePaths("mixed_traffic");
  const std::span<const UpdateOp> all(world.ops);
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[0])).ok());
    ASSERT_TRUE(store->ApplyBatch(all.subspan(1, 8)).ok());
    ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[9])).ok());
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
  ASSERT_TRUE(twin->ApplyBatch(all.subspan(0, 1)).ok());
  ASSERT_TRUE(twin->ApplyBatch(all.subspan(1, 8)).ok());
  ASSERT_TRUE(twin->ApplyBatch(all.subspan(9, 1)).ok());
  ASSERT_TRUE(twin->ApplyBatch(all.subspan(10, 10)).ok());
  EXPECT_EQ(EngineFingerprint(reopened->solver()), EngineFingerprint(*twin));
  CleanUp(paths);
}

TEST(StoreTest, BudgetedStoreCheckpointedMidStreamContinuesIdentically) {
  // A tight work cap cuts rebuilds, and a cut slot stays flagged
  // incomplete across epochs until a later delete settles it. That flag
  // is engine state: a store checkpointed mid-stream and reopened must
  // carry it, or its later repairs diverge from the uninterrupted run.
  TestWorld world;
  world.graph = testing::RandomGraph(60, 0.45, 116);
  Rng rng(116 * 7919 + 13);
  world.ops = MakeChurnStream(world.graph, 240, rng);
  StoreOptions options = MakeStoreOptions();
  options.dynamic.update_budget.max_branch_nodes = 8;
  const std::span<const UpdateOp> all(world.ops);
  constexpr size_t kCheckpointAt = 120;

  for (const size_t epoch : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("epoch=" + std::to_string(epoch));
    const auto run = [&](const StorePaths& paths, bool reopen_midway) {
      std::optional<DurableStore> store(
          DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                               options)
              .value());
      uint64_t cuts = 0;
      for (size_t i = 0; i < all.size(); i += epoch) {
        if (reopen_midway && i == kCheckpointAt) {
          // Snapshot only: the WAL is empty, so the reopened engine is
          // exactly what the snapshot persisted.
          EXPECT_TRUE(store->Checkpoint().ok());
          store.reset();
          store.emplace(
              DurableStore::Open(paths.snapshot, paths.wal, options).value());
        }
        EXPECT_TRUE(store->ApplyBatch(all.subspan(i, epoch)).ok());
        cuts += store->solver().last_batch_stats().rebuild_cuts;
      }
      const Status valid = VerifySolution(store->solver().graph().ToGraph(),
                                          store->solver().Snapshot());
      EXPECT_TRUE(valid.ok()) << valid.ToString();
      return std::make_pair(EngineFingerprint(store->solver()), cuts);
    };
    const StorePaths straight = MakeStorePaths("budget_straight");
    const StorePaths resumed = MakeStorePaths("budget_resumed");
    const auto [straight_fp, straight_cuts] = run(straight, false);
    const auto [resumed_fp, resumed_cuts] = run(resumed, true);
    // The cap must actually cut, or this test shows nothing.
    EXPECT_GT(straight_cuts, 0u);
    EXPECT_EQ(resumed_fp, straight_fp);
    CleanUp(straight);
    CleanUp(resumed);
  }
}

TEST(StoreTest, RecoveredViewReflectsReplayedOneOpEpochs) {
  // Replay through the engine never publishes, so what readers of a
  // recovered store see comes from Open's publish after the replay — not
  // the snapshot-time state the solver was restored from.
  TestWorld world = MakeWorld(40, 115);
  const StorePaths paths = MakeStorePaths("recovered_view");
  std::string snapshot_time;
  {
    auto store = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      MakeStoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    snapshot_time = SolutionToString(store->solver().Snapshot());
    for (const UpdateOp& op : world.ops) {
      ASSERT_TRUE(store->ApplyBatch(OneOp(op)).ok());
    }
  }
  auto reopened =
      DurableStore::Open(paths.snapshot, paths.wal, MakeStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened->replayed_records(), world.ops.size());
  // The replay moved the solution, so a stale view would show.
  ASSERT_NE(SolutionToString(reopened->solver().Snapshot()), snapshot_time);
  EXPECT_EQ(reopened->solver().epoch(), world.ops.size());
  ExpectViewMatchesEngine(reopened->solver());
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
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[applied])).ok())
          << "op " << applied;
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
      ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok());
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
    ASSERT_TRUE(narrowed->ApplyBatch(OneOp(world.ops[i])).ok());
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
    ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok());
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
