// Syscall fault injection for the durable store (src/io/fault.h).
//
// The heart of this file is the randomized fault-schedule harness: for
// several churn worlds × {one-op, eight-op} epochs, it first
// records the complete syscall trace of a fault-free run, then replays the
// identical workload once per recorded syscall hit with that single hit
// failing (ENOSPC/EIO, or a genuine short write), asserting the trichotomy
// — every run either succeeds, refuses cleanly, or seals; never a fourth
// outcome — and that after the fault clears, Reopen() restores an engine
// byte-identical to a never-faulted reference over the acknowledged
// prefix, with ingest resuming to the identical final state.
//
// Around the harness: targeted regressions for the fsyncgate poisoning
// rule, AtomicWriteFile's error paths (temp always unlinked, target never
// clobbered), the best-effort directory-fsync counter, and the
// RetryReopen backoff schedule on a fake clock.
//
// The seam is compiled into every build, so every test here runs in the
// default Release build as well as under the sanitizers.

#include "io/fault.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "io/atomic_file.h"
#include "store/store.h"
#include "store/wal.h"
#include "test_util.h"
#include "util/rng.h"

namespace dkc {
namespace {

/// Disarms on scope exit so a failing assertion can't leak an armed
/// injector into the next test.
struct ScopedFaults {
  explicit ScopedFaults(std::vector<FaultRule> rules) {
    FaultInjector::Instance().Arm(std::move(rules));
  }
  ~ScopedFaults() { FaultInjector::Instance().Disarm(); }
};

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

/// One update as a one-op epoch, the store's form of a single update.
std::span<const UpdateOp> OneOp(const UpdateOp& op) { return {&op, 1}; }

/// The byte-identity oracle (same as store_test): the engine's complete
/// serialized state. Equal fingerprints = identical future decisions.
std::string EngineFingerprint(const DynamicSolver& solver) {
  std::string bytes;
  solver.state().SerializeGraphTo(&bytes);
  solver.state().SerializeStateTo(&bytes);
  return bytes;
}

DynamicOptions TestOptions() {
  DynamicOptions options;
  options.k = 3;
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

struct StorePaths {
  std::string snapshot;
  std::string wal;
};

StorePaths MakeStorePaths(const std::string& tag) {
  StorePaths paths;
  paths.snapshot = TempPath("dkc_fault_" + tag + ".snap");
  paths.wal = TempPath("dkc_fault_" + tag + ".wal");
  std::remove(paths.snapshot.c_str());
  std::remove(paths.wal.c_str());
  return paths;
}

void CleanUp(const StorePaths& paths) {
  // Faulted checkpoints can leave temp files and retained rotations with
  // arbitrary seq suffixes; sweep everything with the snapshot's prefix.
  namespace fs = std::filesystem;
  const fs::path snap(paths.snapshot);
  const std::string prefix = snap.filename().string();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(snap.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
  std::remove(paths.wal.c_str());
  std::remove(AtomicTempPath(paths.wal).c_str());
}

// ------------------------------------------------------- injector basics ---

TEST(FaultInjectorTest, DisarmedSeamIsInert) {
  FaultInjector::Instance().Disarm();
  const std::string path = TempPath("dkc_fault_inert.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "payload").ok());
  EXPECT_EQ(ReadFileBytes(path), "payload");
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, RecordsDeterministicTrace) {
  const std::string path = TempPath("dkc_fault_trace.txt");
  std::vector<FaultHit> first, second;
  {
    ScopedFaults faults({});  // armed with no rules = pure recording
    ASSERT_TRUE(AtomicWriteFile(path, "abc").ok());
    first = FaultInjector::Instance().trace();
  }
  {
    ScopedFaults faults({});
    ASSERT_TRUE(AtomicWriteFile(path, "abc").ok());
    second = FaultInjector::Instance().trace();
  }
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].site, second[i].site) << "hit " << i;
    EXPECT_EQ(first[i].index, second[i].index) << "hit " << i;
  }
  // The atomic publish makes exactly these syscalls, in this order.
  ASSERT_GE(first.size(), 5u);
  EXPECT_EQ(first[0].site, FaultSite::kAtomicOpen);
  EXPECT_EQ(first[1].site, FaultSite::kAtomicWrite);
  EXPECT_EQ(first[2].site, FaultSite::kAtomicFsync);
  EXPECT_EQ(first[3].site, FaultSite::kAtomicClose);
  EXPECT_EQ(first[4].site, FaultSite::kAtomicRename);
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, SiteNamesRoundTrip) {
  for (FaultSite site : {FaultSite::kAtomicWrite, FaultSite::kWalFsync,
                         FaultSite::kSnapshotReadOpen, FaultSite::kStoreLink}) {
    FaultSite parsed = FaultSite::kAnySite;
    ASSERT_TRUE(FaultSiteFromName(FaultSiteName(site), &parsed));
    EXPECT_EQ(parsed, site);
  }
  FaultSite parsed = FaultSite::kAnySite;
  EXPECT_FALSE(FaultSiteFromName("no_such_site", &parsed));
}

// -------------------------------------------------- AtomicWriteFile paths ---

class AtomicWriteFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("dkc_fault_atomic.txt");
    std::remove(path_.c_str());
    std::remove(AtomicTempPath(path_).c_str());
    ASSERT_TRUE(AtomicWriteFile(path_, "old contents").ok());
  }
  void TearDown() override {
    FaultInjector::Instance().Disarm();
    std::remove(path_.c_str());
    std::remove(AtomicTempPath(path_).c_str());
  }

  /// After a failed publish: the previous contents survive untouched and
  /// no temp file is left behind.
  void ExpectCleanFailure(const Status& status) {
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), Status::Code::kIOError) << status.ToString();
    EXPECT_EQ(ReadFileBytes(path_), "old contents");
    EXPECT_FALSE(std::ifstream(AtomicTempPath(path_)).is_open())
        << "temp file leaked";
  }

  std::string path_;
};

TEST_F(AtomicWriteFaultTest, EnospcAtWriteLeavesTargetAndUnlinksTemp) {
  FaultRule rule;
  rule.site = FaultSite::kAtomicWrite;
  rule.error = ENOSPC;
  ScopedFaults faults({rule});
  ExpectCleanFailure(AtomicWriteFile(path_, "new contents"));
}

TEST_F(AtomicWriteFaultTest, EnospcAtFsyncLeavesTargetAndUnlinksTemp) {
  FaultRule rule;
  rule.site = FaultSite::kAtomicFsync;
  rule.error = ENOSPC;
  ScopedFaults faults({rule});
  ExpectCleanFailure(AtomicWriteFile(path_, "new contents"));
}

TEST_F(AtomicWriteFaultTest, EnospcAtRenameLeavesTargetAndUnlinksTemp) {
  FaultRule rule;
  rule.site = FaultSite::kAtomicRename;
  rule.error = ENOSPC;
  ScopedFaults faults({rule});
  ExpectCleanFailure(AtomicWriteFile(path_, "new contents"));
}

TEST_F(AtomicWriteFaultTest, FailedCloseLeavesTargetAndUnlinksTemp) {
  FaultRule rule;
  rule.site = FaultSite::kAtomicClose;
  rule.error = EIO;
  ScopedFaults faults({rule});
  ExpectCleanFailure(AtomicWriteFile(path_, "new contents"));
}

TEST_F(AtomicWriteFaultTest, ShortWriteIsRetriedToCompletion) {
  // A genuinely short ::write is not an error — the loop continues from
  // the short count. Inject 5 real bytes on the first call; the rest of
  // the payload lands on the second.
  FaultRule rule;
  rule.site = FaultSite::kAtomicWrite;
  rule.short_bytes = 5;
  ScopedFaults faults({rule});
  ASSERT_TRUE(AtomicWriteFile(path_, "new contents").ok());
  EXPECT_EQ(ReadFileBytes(path_), "new contents");
}

TEST_F(AtomicWriteFaultTest, ZeroProgressWriteFailsInsteadOfSpinning) {
  // write() returning 0 forever must surface as an error, not an infinite
  // retry loop.
  FaultRule rule;
  rule.site = FaultSite::kAtomicWrite;
  rule.fail_count = 0;  // sticky
  rule.short_bytes = 0;
  ScopedFaults faults({rule});
  ExpectCleanFailure(AtomicWriteFile(path_, "new contents"));
}

TEST_F(AtomicWriteFaultTest, EintrIsRetriedTransparently) {
  FaultRule rule;
  rule.site = FaultSite::kAtomicWrite;
  rule.fail_count = 3;  // three consecutive EINTRs, then clean
  rule.error = EINTR;
  ScopedFaults faults({rule});
  ASSERT_TRUE(AtomicWriteFile(path_, "new contents").ok());
  EXPECT_EQ(ReadFileBytes(path_), "new contents");
}

TEST_F(AtomicWriteFaultTest, DirFsyncFailureIsCountedNotFatal) {
  const uint64_t before = GetAtomicFileStats().parent_dir_sync_failures;
  FaultRule rule;
  rule.site = FaultSite::kDirFsync;
  rule.error = EIO;
  ScopedFaults faults({rule});
  // Best-effort: the publish itself still succeeds...
  ASSERT_TRUE(AtomicWriteFile(path_, "new contents").ok());
  EXPECT_EQ(ReadFileBytes(path_), "new contents");
  // ...but the failure is visible in the process-wide counter.
  EXPECT_EQ(GetAtomicFileStats().parent_dir_sync_failures, before + 1);
}

// ------------------------------------------------------ WAL sync poisoning ---

TEST(WalPoisonTest, FailedFsyncPoisonsSubsequentAppends) {
  const std::string path = TempPath("dkc_fault_fsyncgate.wal");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());

  WalRecord rec;
  rec.seq = 1;
  rec.is_insert = true;
  rec.u = 1;
  rec.v = 2;
  Status failed;
  {
    FaultRule rule;
    rule.site = FaultSite::kWalFsync;
    rule.error = EIO;
    ScopedFaults faults({rule});
    failed = writer->AppendGroup(std::span(&rec, 1), /*sync=*/true);
    ASSERT_FALSE(failed.ok());
  }
  // The fault is gone — but the writer must NOT report success for any
  // further append or sync: after a failed fsync the kernel may already
  // have dropped the page, and a later "clean" fsync would silently lose
  // the record (the fsyncgate failure mode).
  rec.seq = 2;
  const Status after = writer->AppendGroup(std::span(&rec, 1), /*sync=*/true);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.ToString(), failed.ToString());
  EXPECT_FALSE(writer->Sync().ok());
  EXPECT_FALSE(writer->poisoned().ok());

  // Reopen is the documented way back: a fresh writer appends cleanly.
  auto reopened = WalWriter::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->AppendGroup(std::span(&rec, 1), /*sync=*/true).ok());
  std::remove(path.c_str());
}

TEST(WalPoisonTest, ShortAppendPoisonsWriter) {
  const std::string path = TempPath("dkc_fault_short_append.wal");
  std::remove(path.c_str());
  auto opened = WalWriter::Open(path);
  ASSERT_TRUE(opened.ok());
  std::optional<WalWriter> writer(std::move(opened).value());
  WalRecord rec;
  rec.seq = 1;
  rec.is_insert = true;
  rec.u = 3;
  rec.v = 4;
  {
    FaultRule rule;
    rule.site = FaultSite::kWalAppend;
    rule.short_bytes = 7;  // 7 of 21 bytes reach the stdio buffer
    ScopedFaults faults({rule});
    ASSERT_FALSE(writer->AppendGroup(std::span(&rec, 1), /*sync=*/false).ok());
  }
  rec.seq = 2;
  EXPECT_FALSE(writer->AppendGroup(std::span(&rec, 1), /*sync=*/false).ok());

  // The flush on close writes the torn prefix; the scan must cut it as a
  // torn tail, recovering zero records — never a bogus one.
  writer.reset();  // destroy the writer (flush+close)
  auto scan = ReadWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_TRUE(scan->records.empty());
  std::remove(path.c_str());
}

// ------------------------------------------------------- sealed lifecycle ---

TEST(SealedStoreTest, WalFaultSealsRefusesAndReopens) {
  TestWorld world = MakeWorld(30, 7001);
  const StorePaths paths = MakeStorePaths("sealed");
  auto store = [&] {
    StoreOptions options;
    options.dynamic = TestOptions();
    return DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                options);
  }();
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Apply half the stream cleanly; remember the acknowledged fingerprint.
  for (size_t i = 0; i < 15; ++i) {
    ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok());
  }
  const std::string acked = EngineFingerprint(store->solver());

  {
    FaultRule rule;
    rule.site = FaultSite::kWalFsync;
    rule.error = ENOSPC;
    rule.fail_count = 0;  // sticky: every sync fails until disarm
    ScopedFaults faults({rule});
    const Status failed = store->ApplyBatch(OneOp(world.ops[15]));
    ASSERT_FALSE(failed.ok());
    ASSERT_TRUE(store->sealed());
    EXPECT_EQ(store->seal_status().ToString(), failed.ToString());

    // Sealed: reads keep working on the acknowledged state...
    EXPECT_EQ(EngineFingerprint(store->solver()), acked);
    std::string error;
    EXPECT_TRUE(store->solver().CheckInvariants(&error)) << error;
    // ...and every mutation refuses with the sealing error.
    EXPECT_EQ(store->ApplyBatch(OneOp(world.ops[16])).ToString(),
              failed.ToString());
    const std::span<const UpdateOp> tail(world.ops);
    EXPECT_EQ(store->ApplyBatch(tail.subspan(16, 4)).ToString(),
              failed.ToString());
    EXPECT_EQ(store->Checkpoint().ToString(), failed.ToString());
  }

  // Fault cleared: Reopen recovers from disk, byte-identical to the
  // acknowledged prefix, and re-arms ingest.
  ASSERT_TRUE(store->Reopen().ok());
  EXPECT_FALSE(store->sealed());
  EXPECT_EQ(store->applied_seq(), 15u);
  EXPECT_EQ(EngineFingerprint(store->solver()), acked);
  for (size_t i = 15; i < world.ops.size(); ++i) {
    ASSERT_TRUE(store->ApplyBatch(OneOp(world.ops[i])).ok()) << "op " << i;
  }
  EXPECT_EQ(store->applied_seq(), world.ops.size());
  CleanUp(paths);
}

TEST(SealedStoreTest, ReopenOnUnsealedStoreIsInvalid) {
  TestWorld world = MakeWorld(4, 7002);
  const StorePaths paths = MakeStorePaths("unsealed_reopen");
  StoreOptions options;
  options.dynamic = TestOptions();
  auto store =
      DurableStore::Create(world.graph, paths.snapshot, paths.wal, options);
  ASSERT_TRUE(store.ok());
  const Status status = store->Reopen();
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  CleanUp(paths);
}

TEST(SealedStoreTest, RetryReopenBacksOffExponentiallyOnFakeClock) {
  TestWorld world = MakeWorld(4, 7003);
  const StorePaths paths = MakeStorePaths("backoff");
  StoreOptions options;
  options.dynamic = TestOptions();
  auto store =
      DurableStore::Create(world.graph, paths.snapshot, paths.wal, options);
  ASSERT_TRUE(store.ok());

  // Seal via a one-shot WAL fsync fault, then keep recovery failing with a
  // sticky snapshot-read fault while the backoff schedule runs.
  {
    FaultRule seal_rule;
    seal_rule.site = FaultSite::kWalFsync;
    seal_rule.error = ENOSPC;
    ScopedFaults faults({seal_rule});
    ASSERT_FALSE(store->ApplyBatch(OneOp(world.ops[0])).ok());
    ASSERT_TRUE(store->sealed());
  }

  std::vector<uint64_t> sleeps;
  ReopenRetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 10;
  retry.max_backoff_ms = 40;
  retry.sleep_ms = [&sleeps](uint64_t ms) { sleeps.push_back(ms); };
  {
    FaultRule stuck;
    stuck.site = FaultSite::kSnapshotReadOpen;
    stuck.error = EIO;
    stuck.fail_count = 0;  // sticky: every reopen attempt fails
    ScopedFaults faults({stuck});
    const Status gave_up = RetryReopen(&*store, retry);
    ASSERT_FALSE(gave_up.ok());
    EXPECT_TRUE(store->sealed());
  }
  // Four sleeps between five attempts, doubling to the cap — and no
  // wall-clock was involved.
  EXPECT_EQ(sleeps, (std::vector<uint64_t>{10, 20, 40, 40}));

  // Fault gone: the same retry loop succeeds on its first attempt.
  sleeps.clear();
  ASSERT_TRUE(RetryReopen(&*store, retry).ok());
  EXPECT_TRUE(sleeps.empty());
  EXPECT_FALSE(store->sealed());
  CleanUp(paths);
}

// -------------------------------------------------- fault-schedule harness ---

enum class Outcome { kSuccess, kSealed, kCreateRefused };

struct ScheduleResult {
  Outcome outcome = Outcome::kSuccess;
  size_t acked = 0;  // ops acknowledged before the seal (or all of them)
};

struct HarnessConfig {
  uint64_t seed = 0;
  size_t epoch = 1;  // updates per ApplyBatch epoch
  size_t op_count = 40;
  uint64_t checkpoint_every = 7;
};

StoreOptions HarnessOptions(const HarnessConfig& config) {
  StoreOptions options;
  options.dynamic = TestOptions();
  options.checkpoint_every = config.checkpoint_every;
  options.keep_snapshots = 2;  // exercise the retention link/unlink sites
  return options;
}

/// Reference fingerprints over every acknowledgeable prefix: entry c =
/// engine state after ops[0..c). For batched configs only epoch
/// boundaries (and the final count) are filled; others stay empty.
std::vector<std::string> ReferenceFingerprints(const TestWorld& world,
                                               const HarnessConfig& config) {
  std::vector<std::string> fps(config.op_count + 1);
  auto solver = DynamicSolver::Build(world.graph, TestOptions());
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  fps[0] = EngineFingerprint(*solver);
  const std::span<const UpdateOp> all(world.ops);
  for (size_t i = 0; i < config.op_count; i += config.epoch) {
    const size_t len = std::min(config.epoch, config.op_count - i);
    const Status s = solver->ApplyBatch(all.subspan(i, len));
    EXPECT_TRUE(s.ok()) << "epoch at op " << i << ": " << s.ToString();
    fps[i + len] = EngineFingerprint(*solver);
  }
  return fps;
}

/// One workload pass: Create + ingest + final Checkpoint. Returns the
/// classified outcome. `store_out` receives the store unless Create
/// itself was refused.
ScheduleResult RunWorkload(const TestWorld& world, const HarnessConfig& config,
                           const StorePaths& paths,
                           std::optional<DurableStore>* store_out) {
  ScheduleResult result;
  auto created = DurableStore::Create(world.graph, paths.snapshot, paths.wal,
                                      HarnessOptions(config));
  if (!created.ok()) {
    // Bootstrap refused before any update was acknowledged — clean by
    // construction (there is no store to corrupt).
    result.outcome = Outcome::kCreateRefused;
    return result;
  }
  store_out->emplace(std::move(created).value());
  DurableStore& store = **store_out;

  const std::span<const UpdateOp> all(world.ops);
  for (size_t i = 0; i < config.op_count; i += config.epoch) {
    const size_t len = std::min(config.epoch, config.op_count - i);
    const Status status = store.ApplyBatch(all.subspan(i, len));
    if (!status.ok() || store.sealed()) {
      // THE trichotomy: a mid-stream failure on a valid op is only legal
      // as a seal. (A sealed store with an OK status is the auto-
      // checkpoint-failed case: the op itself stayed acknowledged.)
      EXPECT_TRUE(store.sealed())
          << "non-seal failure on valid op " << i << ": "
          << status.ToString();
      result.outcome = Outcome::kSealed;
      result.acked = status.ok() ? i + len : i;
      return result;
    }
    result.acked = i + len;
  }
  const Status final_checkpoint = store.Checkpoint();
  if (!final_checkpoint.ok() || store.sealed()) {
    EXPECT_TRUE(store.sealed());
    result.outcome = Outcome::kSealed;
  }
  return result;
}

class FaultScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultScheduleTest, TrichotomyAndAckedPrefixIdentity) {
  const uint64_t seed = GetParam();
  size_t schedules = 0, sealed_runs = 0, clean_runs = 0, refused_runs = 0;

  for (const size_t epoch : {size_t{1}, size_t{8}}) {
    HarnessConfig config;
    config.seed = seed;
    config.epoch = epoch;
    config.checkpoint_every = epoch == 1 ? 7 : 16;
    const TestWorld world = MakeWorld(config.op_count, seed);
    const std::vector<std::string> refs = ReferenceFingerprints(world, config);

    // Discovery pass: record the fault-free run's complete syscall trace.
    const StorePaths paths =
        MakeStorePaths("sched_" + std::to_string(seed) + "_" +
                       std::to_string(epoch));
    uint64_t total_hits = 0;
    {
      ScopedFaults recording({});
      std::optional<DurableStore> store;
      const ScheduleResult dry = RunWorkload(world, config, paths, &store);
      ASSERT_EQ(dry.outcome, Outcome::kSuccess);
      ASSERT_EQ(dry.acked, config.op_count);
      total_hits = FaultInjector::Instance().hits();
    }
    CleanUp(paths);
    // One-op epochs record ~230 hits, eight-op epochs ~80 (one fsync per
    // epoch). A collapse below this floor means the seam fell off the
    // syscall path.
    ASSERT_GE(total_hits, 50u) << "seam lost coverage?";
    RecordProperty("hits_epoch_" + std::to_string(epoch),
                   static_cast<int>(total_hits));

    // One schedule per recorded hit: replay the identical workload with
    // exactly that hit failing. Determinism makes the discovery trace
    // valid for every replay up to the injected failure.
    for (uint64_t hit = 1; hit <= total_hits; ++hit) {
      ++schedules;
      FaultRule rule;
      rule.site = FaultSite::kAnySite;
      rule.hit = hit;
      rule.error = (hit % 2 == 0) ? ENOSPC : EIO;
      if (hit % 5 == 0) rule.short_bytes = hit % 19;  // genuine torn writes

      std::optional<DurableStore> store;
      ScheduleResult run;
      {
        ScopedFaults faults({rule});
        run = RunWorkload(world, config, paths, &store);
      }
      switch (run.outcome) {
        case Outcome::kCreateRefused:
          ++refused_runs;
          break;
        case Outcome::kSuccess: {
          // The fault hit a harmless or best-effort site (a retried short
          // write, a directory fsync, a retention unlink): the run must
          // be byte-identical to the reference end state.
          ++clean_runs;
          ASSERT_TRUE(store.has_value());
          EXPECT_FALSE(store->sealed());
          EXPECT_EQ(EngineFingerprint(store->solver()), refs[run.acked])
              << "hit " << hit << " diverged without sealing";
          break;
        }
        case Outcome::kSealed: {
          ++sealed_runs;
          ASSERT_TRUE(store.has_value());
          ASSERT_FALSE(refs[run.acked].empty())
              << "hit " << hit << ": acked count " << run.acked
              << " is not an acknowledgeable boundary";
          // Sealed, not stopped: reads still serve the acknowledged state
          // and the engine is internally consistent.
          EXPECT_EQ(EngineFingerprint(store->solver()), refs[run.acked])
              << "hit " << hit << ": sealed engine diverged from the "
              << "acknowledged prefix";
          std::string error;
          EXPECT_TRUE(store->solver().CheckInvariants(&error))
              << "hit " << hit << ": " << error;

          // Fault cleared (ScopedFaults disarmed): Reopen must recover to
          // the byte-identical acknowledged prefix...
          ASSERT_TRUE(store->Reopen().ok()) << "hit " << hit;
          EXPECT_FALSE(store->sealed());
          ASSERT_EQ(store->applied_seq(), run.acked) << "hit " << hit;
          EXPECT_EQ(EngineFingerprint(store->solver()), refs[run.acked])
              << "hit " << hit << ": Reopen diverged";

          // ...and ingest re-arms: completing the stream lands on the
          // never-faulted final state.
          const std::span<const UpdateOp> all(world.ops);
          for (size_t i = run.acked; i < config.op_count; i += config.epoch) {
            const size_t len = std::min(config.epoch, config.op_count - i);
            const Status resumed = store->ApplyBatch(all.subspan(i, len));
            ASSERT_TRUE(resumed.ok())
                << "hit " << hit << " resume op " << i << ": "
                << resumed.ToString();
          }
          EXPECT_EQ(EngineFingerprint(store->solver()),
                    refs[config.op_count])
              << "hit " << hit << ": resumed run diverged at the end";
          break;
        }
      }
      store.reset();
      CleanUp(paths);
    }
  }

  // The acceptance bar: this parameterized test runs per seed; the suite
  // total across seeds must clear 500 schedules. Each seed contributes its
  // own floor so a collapse in recorded-trace length is caught here.
  EXPECT_GE(schedules, 150u);
  EXPECT_GT(sealed_runs, 0u) << "no schedule sealed — seam not on the path?";
  EXPECT_GT(clean_runs, 0u);
  RecordProperty("schedules", static_cast<int>(schedules));
  RecordProperty("sealed_runs", static_cast<int>(sealed_runs));
  RecordProperty("clean_runs", static_cast<int>(clean_runs));
  RecordProperty("create_refused_runs", static_cast<int>(refused_runs));
}

INSTANTIATE_TEST_SUITE_P(Worlds, FaultScheduleTest,
                         ::testing::Values(9101u, 9202u, 9303u, 9404u));

}  // namespace
}  // namespace dkc
