// dkc_e2e — end-to-end and per-layer benchmark harness for the dkc library.
//
// One invocation runs one workload over inputs generated from
// --seed (same seed, same graph, same update stream):
//
//   setup    generate the graph and the update stream (untimed), then
//            bootstrap a durable store on the graph (static solve +
//            candidate index + snapshot + empty WAL) kSetupReps times;
//            setup_s is the median bootstrap time.
//   then a fixed number of rounds, each the same fixed sequence:
//   solve    one static LP solve (k = 4, preprocessing on) of the graph.
//   ingest   checkpoint, then the next kRoundUpdates updates of the stream
//            through DurableStore::ApplyBatch in epochs of the workload's
//            batch size (validation, WAL group commit + fsync, engine
//            apply, view publish).
//   recover  drop the store and reopen it from disk (snapshot load, WAL
//            scan, replay of exactly those kRoundUpdates updates); the
//            reopened store serves the next round.
//
// The work is fixed by --seconds alone (kRoundSeconds is the nominal
// round time on the reference host), never by how fast the build runs, so
// every build applies the same prefix of the same stream.
//
// Correctness: the first solve is verified (disjoint, real, maximal
// k-cliques; on a pooled workload also byte-equal to a serial solve) and
// every later solve must reproduce it exactly; every epoch must publish a
// view of the engine's epoch, and every kSampleEvery-th view must hold the
// engine's cliques; every recovery must land on the live solution byte for
// byte; at the end the served solution is verified and the engine
// invariants checked.
//
// --trace=0 prints the end-to-end metrics. --trace=1 also times the layers
// from outside — spans around each call into a layer, plus the WAL
// group-flush hook that splits an epoch into commit and engine apply —
// prints the per-layer metrics instead, and writes the spans as Chrome
// trace-event JSON to --spans-out when given. The last stdout line is one
// JSON object: {"correct": .., "attempted": .., "failed": .., "metrics": ..}
//
//   dkc_e2e --workload=batch1-serial --seed=1 --seconds=40 --trace=0
//           --workdir=<dir for the store files> [--spans-out=path]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/solver.h"
#include "core/verify.h"
#include "dynamic/solution_view.h"
#include "dynamic/workload.h"
#include "gen/generators.h"
#include "store/snapshot.h"
#include "store/store.h"
#include "store/wal.h"
#include "util/flags.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kCliqueSize = 4;
constexpr dkc::NodeId kNodes = 100000;
constexpr int kSetupReps = 7;
// Updates ingested, and so WAL records replayed, per round. The one
// assumed ratio of the traffic mix: one solve and one crash recovery per
// kRoundUpdates updates.
constexpr size_t kRoundUpdates = 1 << 11;
constexpr size_t kSampleEvery = 16;
// Rounds every run makes, whatever --seconds says, so each metric has
// samples (epoch_p90_ms needs >= 100 epochs).
constexpr size_t kMinRounds = 4;

struct Workload {
  const char* name;
  size_t batch;         // updates per ApplyBatch epoch
  size_t threads;       // 0: serial; else pool size and solve partitions
  double round_s;       // nominal round time on the reference host
};

// The batch sizes are the persisted-ingest points the ROADMAP names
// (1 and 64); the threads are {1, vCPUs of the reference host}.
constexpr Workload kWorkloads[] = {
    {"batch1-serial", 1, 0, 3.2},
    {"batch64-pool4", 64, 4, 1.1},
};

dkc::StatusOr<dkc::Graph> MakeGraph(uint64_t seed) {
  dkc::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  return dkc::WattsStrogatz(kNodes, 16, 0.1, rng);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const auto rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Ratio(uint64_t a, uint64_t b) {
  return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
}

bool SameCliques(const dkc::CliqueStore& a, const dkc::CliqueStore& b) {
  if (a.size() != b.size() || a.k() != b.k()) return false;
  for (dkc::CliqueId i = 0; i < a.size(); ++i) {
    const auto x = a.Get(i), y = b.Get(i);
    if (!std::equal(x.begin(), x.end(), y.begin())) return false;
  }
  return true;
}

// Spans recorded by the benchmark around its calls into each layer (trace
// mode only). Kept in memory, written out as Chrome trace-event JSON.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  void Add(const char* name, const char* parent, Clock::time_point start,
           Clock::time_point end) {
    if (!enabled_) return;
    spans_.push_back({name, parent, start, end});
    durations_[name].push_back(Millis(start, end));
  }

  const std::vector<double>& Durations(const std::string& name) {
    return durations_[name];
  }

  void Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}\n",
                   i == 0 ? "" : ",", s.name, s.parent,
                   1e3 * Millis(origin_, s.start),
                   1e3 * Millis(s.start, s.end));
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
  }

 private:
  struct Span {
    const char* name;
    const char* parent;
    Clock::time_point start, end;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> durations_;
};

class BenchRun {
 public:
  BenchRun(const Workload& w, uint64_t seed, double seconds, bool trace,
          const std::string& workdir)
      : w_(w),
        seed_(seed),
        rounds_(std::max(kMinRounds, static_cast<size_t>(std::lround(
                                         seconds / w.round_s)))),
        spans_(trace),
        snapshot_path_(workdir + "/store.snap"),
        wal_path_(workdir + "/store.wal") {
    if (w.threads > 0) pool_ = std::make_unique<dkc::ThreadPool>(w.threads);
    options_.dynamic.k = kCliqueSize;
    options_.dynamic.pool = pool_.get();
    options_.sync_every_append = true;
    if (trace) {
      // Splits ApplyBatch at the group-commit durability point.
      options_.after_group_flush = [this](uint64_t) {
        flushed_at_ = Clock::now();
      };
    }
  }

  // The WAL flush hook captures `this`.
  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  void Run() {
    const Clock::time_point t0 = Clock::now();
    if (!Setup()) return;
    const Clock::time_point start = Clock::now();
    for (size_t round = 0; round < rounds_; ++round) {
      if (!SolveOnce() || !IngestAndRecover()) break;
    }
    const Clock::time_point end = Clock::now();
    FinalChecks();
    std::fprintf(stderr,
                 "%s: setup %.2f s; %zu rounds in %.2f s: %zu solves, "
                 "%zu epochs, %zu recoveries\n",
                 w_.name, Millis(t0, start) / 1e3, rounds_,
                 Millis(start, end) / 1e3, solve_ms_.size(), epoch_ms_.size(),
                 recover_ms_.size());
  }

  void Report(std::FILE* out, const std::string& spans_out) {
    std::map<std::string, std::pair<double, const char*>> metrics;
    const auto put = [&](const char* name, double value, const char* unit) {
      metrics[name] = {value, unit};
    };
    if (!spans_.enabled()) {
      double epoch_s = 0;
      for (double ms : epoch_ms_) epoch_s += ms / 1e3;
      put("setup_s", Median(setup_s_), "s");
      put("solve_ms", Median(solve_ms_), "ms");
      put("epoch_p50_ms", Median(epoch_ms_), "ms");
      put("epoch_p90_ms", Quantile(epoch_ms_, 0.9), "ms");
      put("updates_per_s", epoch_s > 0 ? epoch_updates_ / epoch_s : 0, "1/s");
      put("recover_ms", Median(recover_ms_), "ms");
      put("coverage_pct", coverage_pct_, "%");
      put("peak_rss_mb", dkc::PeakRssBytes() / 1048576.0, "MB");
    } else {
      put("preprocess_ms", Median(spans_.Durations("preprocess")), "ms");
      put("solve_init_ms", Median(spans_.Durations("solve_init")), "ms");
      put("solve_calc_ms", Median(spans_.Durations("solve_calc")), "ms");
      put("preprocess_edges_cut_pct", edges_cut_pct_, "%");
      put("cliques_listed", static_cast<double>(cliques_listed_), "count");
      put("wal_commit_ms", Median(spans_.Durations("wal_commit")), "ms");
      put("engine_apply_ms", Median(spans_.Durations("engine_apply")), "ms");
      put("view_publish_ms", Median(spans_.Durations("view_publish")), "ms");
      put("checkpoint_ms", Median(spans_.Durations("checkpoint")), "ms");
      put("dirty_slots_per_update", Ratio(dirty_slots_, epoch_updates_),
          "count");
      put("work_per_update", Ratio(work_, epoch_updates_), "count");
      put("swap_commits_per_kupdate",
          1000 * Ratio(swap_commits_, epoch_updates_), "count");
      put("snapshot_load_ms", Median(spans_.Durations("snapshot_load")), "ms");
      put("wal_scan_ms", Median(spans_.Durations("wal_scan")), "ms");
      put("replay_ms", Median(replay_ms_), "ms");
      if (!spans_out.empty()) spans_.Write(spans_out);
    }
    std::fprintf(out,
                 "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                 "\"metrics\": {",
                 correct_ && failed_ == 0 ? "true" : "false",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const auto& [name, value] : metrics) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                   first ? "" : ", ", name.c_str(), value.first, value.second);
      first = false;
    }
    std::fprintf(out, "}}\n");
  }

 private:
  // A failed check marks the run incorrect. Every operation counts in
  // `attempted`, a failed one also in `failed`.
  bool Check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }
  bool CheckOp(const dkc::Status& status, const std::string& what) {
    ++attempted_;
    if (status.ok()) return true;
    ++failed_;
    return Check(false, what + ": " + status.ToString());
  }

  dkc::SolverOptions SolveOptions(dkc::ThreadPool* pool) const {
    dkc::SolverOptions options;
    options.k = kCliqueSize;
    options.method = dkc::Method::kLP;
    options.pool = pool;
    options.partitions = pool == nullptr ? 0 : static_cast<int>(w_.threads);
    return options;
  }

  // Inputs and the reference solution are made untimed; setup_s times the
  // store bootstrap alone.
  bool Setup() {
    auto graph = MakeGraph(seed_);
    if (!CheckOp(graph.status(), "generate graph")) return false;
    graph_ = std::move(graph).value();
    dkc::Rng rng(seed_ ^ 0x5E17C4u);
    const size_t stream_ops = rounds_ * kRoundUpdates;
    ops_ = dkc::MakeChurnStream(graph_, stream_ops, rng);
    if (!Check(ops_.size() == stream_ops, "short update stream")) return false;

    // Serial and unpartitioned: the pooled, partitioned solves of a pooled
    // workload must reproduce it byte for byte.
    auto reference = dkc::Solve(graph_, SolveOptions(nullptr));
    if (!CheckOp(reference.status(), "reference solve") ||
        !Check(dkc::VerifySolution(graph_, reference->set).ok(),
               "solve returned an invalid or non-maximal packing")) {
      return false;
    }
    coverage_pct_ = 100.0 * reference->size() * kCliqueSize /
                    static_cast<double>(graph_.num_nodes());
    reference_.emplace(std::move(reference->set));

    std::optional<dkc::CliqueStore> first;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      store_.reset();
      const Clock::time_point t0 = Clock::now();
      auto store = dkc::DurableStore::Create(graph_, snapshot_path_,
                                             wal_path_, options_);
      if (!CheckOp(store.status(), "bootstrap store")) return false;
      setup_s_.push_back(Millis(t0, Clock::now()) / 1e3);
      const dkc::CliqueStore solution = store->solver().Snapshot();
      if (first && !Check(SameCliques(*first, solution),
                          "setup is not deterministic")) {
        return false;
      }
      first.emplace(solution);
      store_.emplace(std::move(store).value());
    }
    return true;
  }

  bool SolveOnce() {
    const Clock::time_point t0 = Clock::now();
    auto result = dkc::Solve(graph_, SolveOptions(pool_.get()));
    const Clock::time_point t1 = Clock::now();
    if (!CheckOp(result.status(), "solve")) return false;
    solve_ms_.push_back(Millis(t0, t1));
    if (spans_.enabled()) {
      // The facade folds preprocessing into init_ms; lay the phases out
      // back to back inside the measured solve.
      const dkc::PreprocessStats& pre = result->preprocess;
      const auto at = [&](double ms) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
      };
      const double init = result->stats.init_ms;
      spans_.Add("solve", "run", t0, t1);
      spans_.Add("preprocess", "solve", t0, at(pre.elapsed_ms));
      spans_.Add("solve_init", "solve", at(pre.elapsed_ms), at(init));
      spans_.Add("solve_calc", "solve", at(init),
                 at(init + result->stats.compute_ms));
      cliques_listed_ = result->stats.cliques_listed;
      edges_cut_pct_ = 100.0 * Ratio(pre.edges_removed(), pre.edges_before);
    }
    return Check(SameCliques(*reference_, result->set),
                 "solve differs from the serial reference solve");
  }

  // One epoch of the stream through the store, timed end to end and (trace)
  // split at the WAL group flush.
  bool ApplyEpoch() {
    const std::span<const dkc::UpdateOp> ops(ops_.data() + pos_, w_.batch);
    const Clock::time_point t0 = Clock::now();
    const dkc::Status status = store_->ApplyBatch(ops);
    const Clock::time_point t1 = Clock::now();
    if (!CheckOp(status, "apply epoch")) return false;
    pos_ += ops.size();
    epoch_ms_.push_back(Millis(t0, t1));
    epoch_updates_ += ops.size();
    const dkc::DynamicSolver& solver = store_->solver();
    const auto view = solver.published_view();
    if (!Check(view->epoch == solver.epoch() &&
                   view->solution.size() == solver.solution_size(),
               "published view does not match the engine")) {
      return false;
    }
    const bool sampled = epoch_ms_.size() % kSampleEvery == 0;
    if (sampled && !Check(SameCliques(view->solution, solver.Snapshot()),
                          "published view holds other cliques than the "
                          "engine")) {
      return false;
    }
    if (spans_.enabled()) {
      spans_.Add("epoch", "ingest", t0, t1);
      spans_.Add("wal_commit", "epoch", t0, flushed_at_);
      spans_.Add("engine_apply", "epoch", flushed_at_, t1);
      const dkc::BatchStats& stats = solver.last_batch_stats();
      dirty_slots_ += stats.dirty_slots;
      work_ += stats.work;
      swap_commits_ += stats.swaps.commits;
      if (sampled) {
        // The publish layer alone: rebuild the epoch's view off to the side.
        const Clock::time_point p0 = Clock::now();
        const auto rebuilt = dkc::BuildSolutionView(
            solver.state(), solver.epoch(), view->updates_applied);
        spans_.Add("view_publish", "ingest", p0, Clock::now());
        return Check(SameCliques(rebuilt->solution, view->solution),
                     "rebuilt view differs from the published one");
      }
    }
    return true;
  }

  // Checkpoint, ingest the round's updates, then drop the store and reopen
  // it, so every recovery replays exactly kRoundUpdates WAL records.
  bool IngestAndRecover() {
    const Clock::time_point c0 = Clock::now();
    const dkc::Status checkpointed = store_->Checkpoint();
    spans_.Add("checkpoint", "round", c0, Clock::now());
    if (!CheckOp(checkpointed, "checkpoint")) return false;
    if (!Check(pos_ + kRoundUpdates <= ops_.size(), "update stream ran out")) {
      return false;
    }
    for (size_t i = 0; i < kRoundUpdates / w_.batch; ++i) {
      if (!ApplyEpoch()) return false;
    }
    const dkc::CliqueStore live = store_->solver().Snapshot();
    const uint64_t live_seq = store_->applied_seq();
    store_.reset();

    double layers_ms = 0;
    if (spans_.enabled()) {
      const Clock::time_point t0 = Clock::now();
      const bool loaded = dkc::ReadSnapshot(snapshot_path_).ok();
      const Clock::time_point t1 = Clock::now();
      const bool scanned = dkc::ReadWal(wal_path_).ok();
      const Clock::time_point t2 = Clock::now();
      spans_.Add("snapshot_load", "recover", t0, t1);
      spans_.Add("wal_scan", "recover", t1, t2);
      layers_ms = Millis(t0, t2);
      Check(loaded && scanned, "standalone snapshot/WAL read failed");
    }
    const Clock::time_point t0 = Clock::now();
    auto reopened =
        dkc::DurableStore::Open(snapshot_path_, wal_path_, options_);
    const Clock::time_point t1 = Clock::now();
    if (!CheckOp(reopened.status(), "recover")) return false;
    recover_ms_.push_back(Millis(t0, t1));
    if (spans_.enabled()) {
      spans_.Add("open", "recover", t0, t1);
      replay_ms_.push_back(std::max(0.0, Millis(t0, t1) - layers_ms));
    }
    if (!Check(reopened->applied_seq() == live_seq &&
                   reopened->replayed_records() == kRoundUpdates &&
                   SameCliques(live, reopened->solver().Snapshot()),
               "recovered store differs from the live one")) {
      return false;
    }
    store_.emplace(std::move(reopened).value());
    return true;
  }

  void FinalChecks() {
    if (!correct_ || !store_) return;
    std::string error;
    const dkc::DynamicSolver& solver = store_->solver();
    Check(solver.CheckInvariants(&error), "engine invariants: " + error);
    Check(dkc::VerifySolution(solver.graph().ToGraph(), solver.Snapshot())
              .ok(),
          "served packing is invalid or not maximal");
  }

  const Workload& w_;
  const uint64_t seed_;
  const size_t rounds_;
  Spans spans_;
  const std::string snapshot_path_;
  const std::string wal_path_;
  std::unique_ptr<dkc::ThreadPool> pool_;
  dkc::StoreOptions options_;
  Clock::time_point flushed_at_;

  dkc::Graph graph_;
  std::optional<dkc::DurableStore> store_;
  std::optional<dkc::CliqueStore> reference_;
  std::vector<dkc::UpdateOp> ops_;
  size_t pos_ = 0;

  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  std::vector<double> setup_s_, solve_ms_, epoch_ms_, recover_ms_, replay_ms_;
  double coverage_pct_ = 0;
  double edges_cut_pct_ = 0;
  dkc::Count cliques_listed_ = 0;
  uint64_t epoch_updates_ = 0, dirty_slots_ = 0, work_ = 0, swap_commits_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const dkc::Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  const std::string workdir = flags.GetString("workdir", "");
  if (workload == nullptr || workdir.empty()) {
    std::fprintf(stderr,
                 "usage: dkc_e2e --workload=batch1-serial|batch64-pool4 "
                 "--workdir=dir [--seed=n] [--seconds=s] "
                 "[--trace=0|1] [--spans-out=path]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  BenchRun run(*workload, static_cast<uint64_t>(flags.GetInt("seed", 1)),
                  flags.GetDouble("seconds", 40),
                  flags.GetInt("trace", 0) != 0, workdir);
  run.Run();
  run.Report(stdout, flags.GetString("spans-out", ""));
  return 0;
}
