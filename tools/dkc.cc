// dkc — command-line front end to the library.
//
//   dkc stats --file=edges.txt [--kmin=3 --kmax=6]
//       graph statistics + k-clique counts (Table-I style row)
//   dkc solve --file=edges.txt --k=4 [--method=LP] [--out=solution.txt]
//       compute a disjoint k-clique set, optionally persist it
//   dkc verify --file=edges.txt --solution=solution.txt
//       validate a persisted solution against a graph
//   dkc cover --file=edges.txt --k=5 [--min-k=3] [--pairs]
//       iterated residual cover (teaming rounds, paper intro)
//   dkc match --file=edges.txt [--exact]
//       maximum matching (the k=2 boundary case)
//   dkc update --file=edges.txt --k=3 [--updates=2000] [--threads=4]
//              [--update-budget-ms=x] [--update-branch-budget=n]
//              [--batch=N] [--hot=H]
//       dynamic maintenance over a synthetic mixed insert/delete stream,
//       reporting per-update latency, swap activity, and budget aborts.
//       --batch=N applies N updates per ApplyBatch epoch (deduped
//       rebuilds, updates/sec + dedup stats); the default --batch=0 is one
//       update per epoch, the same as --batch=1;
//       --hot=H switches to a bursty stream concentrated on the H hottest
//       nodes' neighborhoods — the workload where batching dedups most.
//   dkc serve --snapshot=s.bin --wal=s.wal --file=edges.txt --k=3
//             [--churn=2000 | --updates-from=path|-] [--checkpoint-every=n]
//             [--no-sync] [--crash-after=n] [--batch=N] [--readers=R]
//             [--top=K] [--crash-in-commit-window=n]
//       durable serving loop: bootstrap (or crash-recover) a persistent
//       store, ingest an update stream, checkpoint periodically, compact
//       the WAL on exit. --churn regenerates the same deterministic stream
//       on every invocation, so a recovered process resumes mid-stream;
//       --crash-after=n injects a kill (_exit) after n applied updates for
//       recovery drills. --batch=N ingests N updates per epoch (one WAL
//       append and one fsync per epoch); the default --batch=0 is one
//       update per epoch, the same as --batch=1 (byte-identical WAL);
//       --crash-in-commit-window=n kills the process inside the commit
//       window (WAL flushed, engine not yet applied) at the first epoch
//       reaching seq n; --readers=R runs R concurrent threads reading the
//       published SolutionView (immutable epoch snapshots) while ingest
//       runs; --top=K prints the K highest-score groups at the end;
//       --keep-snapshots=N retains the N-1 most recent checkpoint
//       snapshots beside the live one as "<snapshot>.<seq>" point-in-time
//       rotations.
//
// All subcommands also accept --ws=n,degree,beta to synthesize a
// Watts-Strogatz graph instead of --file (handy without datasets), and
// --threads=n to run the pool-parallel passes (stats counting, every
// solve method, and the dynamic engine's per-update fan-outs) across n
// worker threads; solutions are byte-identical at any thread count.
// --threads or serve's --readers above kMaxThreads (256) is refused with
// exit 1 before any work starts; so is a numeric flag whose value is not
// a number in range (util/flags.h).

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clique/kclique.h"
#include "core/residual_cover.h"
#include "core/solver.h"
#include "core/verify.h"
#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "gen/generators.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "io/edge_list.h"
#include "io/fault.h"
#include "io/solution_io.h"
#include "matching/matching.h"
#include "store/store.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

// Largest --threads (and serve --readers) the CLI accepts. A pool of n
// workers starts n OS threads up front, and serve starts one thread per
// reader, so a mistyped count is refused instead of being left to fail
// inside thread creation.
constexpr long kMaxThreads = 256;

int Usage() {
  std::fprintf(stderr,
               "usage: dkc <stats|solve|verify|cover|match|update|serve> "
               "[flags]\n"
               "  --file=<edge list>  or  --ws=<n>,<degree>,<beta>\n"
               "  --threads=<n>  worker pool for stats/solve/update "
               "(default 1, at most 256)\n"
               "  solve:  --k=4 --method=HG|GC|L|LP|OPT [--out=path]\n"
               "          [--no-preprocess]\n"
               "  verify: --solution=path\n"
               "  cover:  --k=5 --min-k=3 [--pairs]\n"
               "  match:  [--exact]\n"
               "  stats:  [--kmin=3 --kmax=6]\n"
               "  update: --k=3 [--updates=2000] [--update-budget-ms=x]\n"
               "          [--update-branch-budget=n]\n"
               "          [--batch=N] [--hot=H]\n"
               "  serve:  --snapshot=path --wal=path --k=3\n"
               "          [--churn=n | --updates-from=path|-]\n"
               "          [--checkpoint-every=n] [--no-sync] "
               "[--crash-after=n] [--no-skip]\n"
               "          [--batch=N]  N updates per WAL epoch, one fsync "
               "each (0 = 1)\n"
               "          [--readers=R]  R reader threads (at most 256)\n"
               "          [--top=K]\n"
               "          [--crash-in-commit-window=n]\n"
               "          [--keep-snapshots=N]  retain N-1 point-in-time "
               "rotations beside the live snapshot\n"
               "          [--inject-fault=SITE:NTH[:COUNT[:ERRNO]][,...]]  "
               "fail store syscalls\n"
               "          [--reopen-max-attempts=N] [--reopen-backoff-ms=B]\n"
               "          exit codes: 0 clean, 1 error, 2 corruption,\n"
               "          3 I/O error, 4 sealed and reopen gave up\n");
  return 2;
}

dkc::StatusOr<dkc::Graph> LoadGraph(const dkc::Flags& flags) {
  const std::string file = flags.GetString("file", "");
  if (!file.empty()) {
    auto loaded = dkc::ReadEdgeList(file);
    if (!loaded.ok()) return loaded.status();
    std::fprintf(stderr, "loaded %s: %u nodes, %llu edges\n", file.c_str(),
                 loaded->graph.num_nodes(),
                 static_cast<unsigned long long>(loaded->graph.num_edges()));
    return std::move(loaded->graph);
  }
  const std::string ws = flags.GetString("ws", "10000,12,0.1");
  unsigned n = 0, degree = 0;
  double beta = 0;
  if (std::sscanf(ws.c_str(), "%u,%u,%lf", &n, &degree, &beta) != 3) {
    return dkc::Status::InvalidArgument("bad --ws spec: " + ws);
  }
  dkc::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
  return dkc::WattsStrogatz(n, degree, beta, rng);
}

// --threads=n (n >= 2) builds a worker pool; 0/1 stay serial. main has
// already refused n > kMaxThreads.
std::unique_ptr<dkc::ThreadPool> MakePool(const dkc::Flags& flags) {
  const long threads = flags.GetInt("threads", 1);
  if (threads < 2) return nullptr;
  return std::make_unique<dkc::ThreadPool>(static_cast<size_t>(threads));
}

int RunStats(const dkc::Flags& flags, const dkc::Graph& g) {
  std::printf("nodes %u\nedges %llu\nmax-degree %llu\ndegeneracy %llu\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(g.MaxDegree()),
              static_cast<unsigned long long>(dkc::Degeneracy(g)));
  dkc::Dag dag(g, dkc::DegeneracyOrdering(g));
  const auto pool = MakePool(flags);
  const int kmin = static_cast<int>(flags.GetInt("kmin", 3));
  const int kmax = static_cast<int>(flags.GetInt("kmax", 6));
  for (int k = kmin; k <= kmax; ++k) {
    dkc::Timer timer;
    const dkc::Count count = dkc::CountKCliques(dag, k, pool.get());
    std::printf("%d-cliques %llu (%.1f ms)\n", k,
                static_cast<unsigned long long>(count),
                timer.ElapsedMillis());
  }
  return 0;
}

int RunSolve(const dkc::Flags& flags, const dkc::Graph& g) {
  auto method = dkc::ParseMethod(flags.GetString("method", "LP"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 1;
  }
  dkc::SolverOptions options;
  options.k = static_cast<int>(flags.GetInt("k", 4));
  options.method = *method;
  options.budget.time_ms = flags.GetDouble("budget-ms", 0);
  options.budget.memory_bytes = flags.GetInt("budget-mb", 0) * (1 << 20);
  options.preprocess = !flags.GetBool("no-preprocess", false);
  const auto pool = MakePool(flags);
  options.pool = pool.get();
  auto result = dkc::Solve(g, options);
  if (!result.ok()) {
    std::fprintf(stderr, "solve: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (options.preprocess) {
    const dkc::PreprocessStats& pre = result->preprocess;
    std::printf("preprocess: %u -> %u nodes, %llu -> %llu edges "
                "((k-1)-core peel), %.1f ms\n",
                pre.nodes_before, pre.nodes_after,
                static_cast<unsigned long long>(pre.edges_before),
                static_cast<unsigned long long>(pre.edges_after),
                pre.elapsed_ms);
  }
  std::printf("method %s k=%d -> %u disjoint cliques in %.1f ms "
              "(%.1f%% of nodes covered)\n",
              dkc::MethodName(*method), options.k, result->size(),
              result->stats.total_ms(),
              100.0 * result->size() * options.k / g.num_nodes());
  const dkc::Status valid = dkc::VerifySolution(g, result->set);
  if (!valid.ok()) {
    std::fprintf(stderr, "internal error, invalid solution: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    const dkc::Status written = dkc::WriteSolution(result->set, out);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("solution written to %s\n", out.c_str());
  }
  return 0;
}

int RunVerify(const dkc::Flags& flags, const dkc::Graph& g) {
  const std::string path = flags.GetString("solution", "");
  if (path.empty()) return Usage();
  auto solution = dkc::ReadSolution(path);
  if (!solution.ok()) {
    std::fprintf(stderr, "%s\n", solution.status().ToString().c_str());
    return 1;
  }
  const dkc::Status status = dkc::VerifySolution(g, *solution);
  std::printf("%u cliques of size %d: %s\n", solution->size(), solution->k(),
              status.ToString().c_str());
  return status.ok() ? 0 : 1;
}

int RunCover(const dkc::Flags& flags, const dkc::Graph& g) {
  dkc::ResidualCoverOptions options;
  options.k = static_cast<int>(flags.GetInt("k", 5));
  options.min_k = static_cast<int>(flags.GetInt("min-k", 3));
  options.pair_round = flags.GetBool("pairs", false);
  auto result = dkc::ResidualCover(g, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("groups by size:\n");
  for (int k = options.k; k >= (options.pair_round ? 2 : options.min_k);
       --k) {
    dkc::Count groups = 0;
    for (const auto& group : result->groups) groups += (group.k == k);
    std::printf("  k=%d: %llu groups\n", k,
                static_cast<unsigned long long>(groups));
  }
  std::printf("coverage: %llu / %u nodes (%.1f%%)\n",
              static_cast<unsigned long long>(result->covered_nodes),
              g.num_nodes(), 100.0 * result->coverage(g.num_nodes()));
  return 0;
}

int RunUpdate(const dkc::Flags& flags, const dkc::Graph& g) {
  dkc::DynamicOptions options;
  options.k = static_cast<int>(flags.GetInt("k", 3));
  options.update_budget.time_ms = flags.GetDouble("update-budget-ms", 0);
  options.update_budget.max_branch_nodes =
      static_cast<uint64_t>(flags.GetInt("update-branch-budget", 0));
  const auto pool = MakePool(flags);
  options.pool = pool.get();

  const size_t updates =
      static_cast<size_t>(flags.GetInt("updates", 2000));
  const long batch = static_cast<long>(flags.GetInt("batch", 0));
  const long hot = static_cast<long>(flags.GetInt("hot", 0));
  dkc::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0xD15C);
  // --hot concentrates the stream on the hottest neighborhoods (applied on
  // g itself); the default is the paper's mixed workload on prepared G'.
  dkc::Graph base;
  std::vector<dkc::UpdateOp> ops;
  if (hot > 0) {
    base = g;
    ops = dkc::MakeHotNeighborhoodStream(g, updates,
                                         static_cast<size_t>(hot), rng);
  } else {
    dkc::MixedWorkload workload =
        dkc::MakeMixedWorkload(g, updates / 2, updates - updates / 2, rng);
    base = std::move(workload.prepared);
    ops = std::move(workload.ops);
  }

  dkc::Timer build_timer;
  auto solver = dkc::DynamicSolver::Build(base, options);
  if (!solver.ok()) {
    std::fprintf(stderr, "build: %s\n", solver.status().ToString().c_str());
    return 1;
  }
  std::printf("built: |S|=%u, %llu candidates indexed in %.1f ms "
              "(solve %.1f ms + index %.1f ms)\n",
              solver->solution_size(),
              static_cast<unsigned long long>(solver->index_size()),
              build_timer.ElapsedMillis(), solver->build_stats().solve_ms,
              solver->build_stats().index_ms);

  dkc::Timer timer;
  uint64_t total_work = 0;
  uint64_t total_rebuild_cuts = 0;
  // Epoch-batched ingestion: chunks of --batch updates per ApplyBatch
  // (--batch=0, the default, is one update per epoch, like --batch=1).
  const size_t n = static_cast<size_t>(std::max(batch, 1L));
  const std::span<const dkc::UpdateOp> all(ops);
  for (size_t i = 0; i < all.size(); i += n) {
    const dkc::Status status =
        solver->ApplyBatch(all.subspan(i, std::min(n, all.size() - i)));
    if (!status.ok()) {
      std::fprintf(stderr, "batch at op %zu: %s\n", i,
                   status.ToString().c_str());
      return 1;
    }
    total_work += solver->last_batch_stats().work;
    total_rebuild_cuts += solver->last_batch_stats().rebuild_cuts;
  }
  const double total_ms = timer.ElapsedMillis();
  const auto& swaps = solver->lifetime_swap_stats();
  std::printf("%zu updates in %.1f ms (%.0f ns/update, %.2f Mupdates/s, "
              "%.1f work units/update)\n",
              ops.size(), total_ms,
              ops.empty() ? 0.0
                          : 1e6 * total_ms / static_cast<double>(ops.size()),
              total_ms <= 0 ? 0.0
                            : static_cast<double>(ops.size()) /
                                  (1e3 * total_ms),
              ops.empty() ? 0.0 : static_cast<double>(total_work) /
                                      static_cast<double>(ops.size()));
  // The dedup headline: each dirty slot is rebuilt once per epoch no
  // matter how many updates touched it.
  const uint64_t bu = solver->updates_applied();
  const uint64_t br = solver->batch_dirty_rebuilds();
  std::printf("batched: %llu epochs (batch=%zu), %llu dirty-slot rebuilds "
              "for %llu updates (%.2f rebuilds/update)\n",
              static_cast<unsigned long long>(solver->epoch()), n,
              static_cast<unsigned long long>(br),
              static_cast<unsigned long long>(bu),
              bu == 0 ? 0.0 : static_cast<double>(br) / static_cast<double>(bu));
  std::printf("swaps: %llu pops, %llu commits, %llu cliques gained; "
              "%llu budget aborts (%llu mid-rebuild cuts)\n",
              static_cast<unsigned long long>(swaps.pops),
              static_cast<unsigned long long>(swaps.commits),
              static_cast<unsigned long long>(swaps.cliques_gained),
              static_cast<unsigned long long>(solver->aborted_updates()),
              static_cast<unsigned long long>(total_rebuild_cuts));
  std::printf("final |S|=%u, %llu candidates indexed, %.1f MiB\n",
              solver->solution_size(),
              static_cast<unsigned long long>(solver->index_size()),
              static_cast<double>(solver->MemoryBytes()) / (1 << 20));

  const dkc::Status valid =
      dkc::VerifySolution(solver->graph().ToGraph(), solver->Snapshot());
  if (!valid.ok()) {
    std::fprintf(stderr, "internal error, invalid solution: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  return 0;
}

// "i u v" / "d u v" per line ('+'/'-'/insert/delete also accepted), '#'
// comments. The textual twin of the WAL record, for piping streams in.
dkc::StatusOr<std::vector<dkc::UpdateOp>> ReadUpdateStream(std::istream& in) {
  std::vector<dkc::UpdateOp> ops;
  std::string line;
  dkc::Count line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream row(line);
    std::string op;
    if (!(row >> op) || op[0] == '#') continue;
    dkc::UpdateOp update;
    if (op == "i" || op == "+" || op == "insert") {
      update.is_insert = true;
    } else if (op == "d" || op == "-" || op == "delete") {
      update.is_insert = false;
    } else {
      return dkc::Status::Corruption("update stream line " +
                                     std::to_string(line_number) +
                                     ": bad op '" + op + "'");
    }
    if (!(row >> update.edge.first >> update.edge.second)) {
      return dkc::Status::Corruption("update stream line " +
                                     std::to_string(line_number) +
                                     ": expected two node ids");
    }
    ops.push_back(update);
  }
  return ops;
}

// serve's documented exit codes (see Usage): corruption and I/O are
// distinguishable by a supervisor; 4 (gave-up-sealed) is returned at the
// call sites that exhaust the reopen retry budget.
int ServeExitCode(const dkc::Status& status) {
  switch (status.code()) {
    case dkc::Status::Code::kCorruption: return 2;
    case dkc::Status::Code::kIOError: return 3;
    default: return 1;
  }
}

// --inject-fault=SITE:NTH[:COUNT[:ERRNO]][,...]. SITE is a FaultSiteName
// ("wal_fsync", "atomic_write", ...), NTH the 1-based matching hit to fail,
// COUNT how many consecutive hits fail (0 = sticky), ERRNO a symbolic name
// (ENOSPC/EIO/EINTR) or a number.
bool ParseFaultRules(const std::string& spec,
                     std::vector<dkc::FaultRule>* rules, std::string* error) {
  const auto number = [](const std::string& s, uint64_t* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtoull(s.c_str(), &end, 10);
    return end != s.c_str() && *end == '\0' && errno == 0;
  };
  std::istringstream list(spec);
  std::string item;
  while (std::getline(list, item, ',')) {
    std::vector<std::string> fields;
    std::istringstream row(item);
    std::string field;
    while (std::getline(row, field, ':')) fields.push_back(field);
    if (fields.size() < 2 || fields.size() > 4) {
      *error = "bad fault rule '" + item + "'";
      return false;
    }
    dkc::FaultRule rule;
    if (!dkc::FaultSiteFromName(fields[0], &rule.site)) {
      *error = "unknown fault site '" + fields[0] + "'";
      return false;
    }
    uint64_t value = 0;
    if (!number(fields[1], &value)) {
      *error = "bad hit count in '" + item + "'";
      return false;
    }
    rule.hit = value;
    if (fields.size() >= 3) {
      if (!number(fields[2], &value)) {
        *error = "bad fail count in '" + item + "'";
        return false;
      }
      rule.fail_count = value;
    }
    if (fields.size() >= 4) {
      if (fields[3] == "ENOSPC") {
        rule.error = ENOSPC;
      } else if (fields[3] == "EIO") {
        rule.error = EIO;
      } else if (fields[3] == "EINTR") {
        rule.error = EINTR;
      } else if (number(fields[3], &value)) {
        rule.error = static_cast<int>(value);
      } else {
        *error = "bad errno in '" + item + "'";
        return false;
      }
    }
    rules->push_back(rule);
  }
  return !rules->empty();
}

int RunServe(const dkc::Flags& flags, const dkc::Graph& g) {
  const std::string snapshot = flags.GetString("snapshot", "");
  const std::string wal = flags.GetString("wal", "");
  if (snapshot.empty() || wal.empty()) {
    std::fprintf(stderr, "serve: --snapshot and --wal are required\n");
    return Usage();
  }

  dkc::StoreOptions options;
  options.dynamic.k = static_cast<int>(flags.GetInt("k", 3));
  options.dynamic.update_budget.time_ms =
      flags.GetDouble("update-budget-ms", 0);
  options.dynamic.update_budget.max_branch_nodes =
      static_cast<uint64_t>(flags.GetInt("update-branch-budget", 0));
  const auto pool = MakePool(flags);
  options.dynamic.pool = pool.get();
  options.checkpoint_every =
      static_cast<uint64_t>(flags.GetInt("checkpoint-every", 0));
  options.sync_every_append = !flags.GetBool("no-sync", false);
  options.keep_snapshots =
      static_cast<int>(flags.GetInt("keep-snapshots", 1));
  const long crash_in_window =
      static_cast<long>(flags.GetInt("crash-in-commit-window", 0));
  if (crash_in_window > 0) {
    // Recovery drill for the commit window: the epoch's WAL records are
    // flushed and fsynced, the engine has NOT applied the epoch. Recovery
    // must replay the whole epoch.
    options.after_group_flush = [crash_in_window](uint64_t last_seq) {
      if (last_seq >= static_cast<uint64_t>(crash_in_window)) {
        std::fprintf(stderr,
                     "crash injection inside commit window at seq "
                     "%llu\n",
                     static_cast<unsigned long long>(last_seq));
        std::_Exit(7);
      }
    };
  }

  // Syscall fault injection (drills the sealed/Reopen degraded path).
  const std::string fault_spec = flags.GetString("inject-fault", "");
  if (!fault_spec.empty()) {
    std::vector<dkc::FaultRule> rules;
    std::string parse_error;
    if (!ParseFaultRules(fault_spec, &rules, &parse_error)) {
      std::fprintf(stderr, "serve: --inject-fault: %s\n", parse_error.c_str());
      return 1;
    }
    dkc::FaultInjector::Instance().Arm(std::move(rules));
  }

  // Recover if a snapshot is already published at the path, else bootstrap
  // from the loaded graph.
  std::optional<dkc::DurableStore> store;
  if (std::ifstream(snapshot).is_open()) {
    auto opened = dkc::DurableStore::Open(snapshot, wal, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "serve: recovery failed: %s\n",
                   opened.status().ToString().c_str());
      return ServeExitCode(opened.status());
    }
    store = std::move(opened).value();
    std::printf("recovered: seq=%llu, %llu WAL records replayed%s%s, |S|=%u\n",
                static_cast<unsigned long long>(store->applied_seq()),
                static_cast<unsigned long long>(store->replayed_records()),
                store->recovered_torn_tail() ? " (torn tail truncated)" : "",
                store->recovered_torn_group() ? " (torn epoch dropped)" : "",
                store->solver().solution_size());
  } else {
    auto created = dkc::DurableStore::Create(g, snapshot, wal, options);
    if (!created.ok()) {
      std::fprintf(stderr, "serve: bootstrap failed: %s\n",
                   created.status().ToString().c_str());
      return ServeExitCode(created.status());
    }
    store = std::move(created).value();
    std::printf("created: |S|=%u, snapshot at %s\n",
                store->solver().solution_size(), snapshot.c_str());
  }

  // Ingest: a deterministic churn stream (regenerated identically on every
  // invocation, so recovery resumes mid-stream by skipping the prefix the
  // store already holds) or a textual update file / stdin.
  std::vector<dkc::UpdateOp> ops;
  const long churn = static_cast<long>(flags.GetInt("churn", 0));
  const std::string from = flags.GetString("updates-from", "");
  if (churn > 0) {
    dkc::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0x5E17);
    ops = dkc::MakeChurnStream(g, static_cast<size_t>(churn), rng);
  } else if (!from.empty()) {
    dkc::StatusOr<std::vector<dkc::UpdateOp>> parsed = [&] {
      if (from == "-") return ReadUpdateStream(std::cin);
      std::ifstream in(from);
      if (!in.is_open()) {
        return dkc::StatusOr<std::vector<dkc::UpdateOp>>(
            dkc::Status::IOError("cannot open '" + from + "'"));
      }
      return ReadUpdateStream(in);
    }();
    if (!parsed.ok()) {
      std::fprintf(stderr, "serve: %s\n", parsed.status().ToString().c_str());
      return ServeExitCode(parsed.status());
    }
    ops = std::move(parsed).value();
  }

  // The stream is positional history: entry i carries seq i+1, and a
  // recovered store skips the prefix it already holds. --no-skip declares
  // the stream to be *new* ops instead (e.g. piping fresh updates into an
  // existing store via --updates-from=-).
  const uint64_t skip =
      flags.GetBool("no-skip", false)
          ? 0
          : std::min<uint64_t>(store->applied_seq(), ops.size());
  const long crash_after = static_cast<long>(flags.GetInt("crash-after", 0));
  const long batch = static_cast<long>(flags.GetInt("batch", 0));
  const long readers = static_cast<long>(flags.GetInt("readers", 0));

  // Reader/Reopen handshake: Reopen replaces the solver object, so
  // published_view() may only be called while no reopen is in flight.
  // Readers try-lock shared and — while the exclusive lock is held — fall
  // back to the immutable SolutionView they already hold: a reader is
  // never blocked by recovery, it just keeps serving the last published
  // epoch (degraded mode).
  std::shared_mutex store_mu;

  // --readers=R: concurrent threads polling the published SolutionView
  // while ingest runs — each read copies the pointer to an immutable
  // epoch snapshot, never a partially applied epoch.
  std::atomic<bool> ingest_done{false};
  std::atomic<uint64_t> reader_inconsistent{0};
  std::atomic<uint64_t> reader_epochs_seen{0};
  std::atomic<uint64_t> reader_degraded_reads{0};
  std::vector<std::thread> reader_threads;
  for (long r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&store, &store_mu, &ingest_done,
                                 &reader_inconsistent, &reader_epochs_seen,
                                 &reader_degraded_reads] {
      uint64_t last_epoch = UINT64_MAX;
      uint64_t distinct = 0;
      uint64_t degraded = 0;
      std::shared_ptr<const dkc::SolutionView> view;
      while (!ingest_done.load(std::memory_order_acquire)) {
        if (store_mu.try_lock_shared()) {
          view = store->solver().published_view();
          store_mu.unlock_shared();
        } else {
          ++degraded;  // reopen in flight: serve the cached epoch
        }
        if (view) {
          std::string error;
          if (!view->Consistent(&error)) {
            reader_inconsistent.fetch_add(1, std::memory_order_relaxed);
          }
          if (view->epoch != last_epoch) {
            last_epoch = view->epoch;
            ++distinct;
          }
        }
        std::this_thread::yield();
      }
      reader_epochs_seen.fetch_add(distinct, std::memory_order_relaxed);
      reader_degraded_reads.fetch_add(degraded, std::memory_order_relaxed);
    });
  }

  const long reopen_max_attempts =
      static_cast<long>(flags.GetInt("reopen-max-attempts", 8));
  const long reopen_backoff_ms =
      static_cast<long>(flags.GetInt("reopen-backoff-ms", 10));
  uint64_t reopens = 0;

  // Degraded-mode recovery: the store sealed; keep serving reads (the
  // readers above never block) and retry Reopen on capped exponential
  // backoff. False = retry budget exhausted, caller exits 4.
  const auto recover = [&]() -> bool {
    std::fprintf(stderr, "serve: sealed: %s\n",
                 store->seal_status().ToString().c_str());
    std::printf("sealed: degraded mode at seq=%llu, retrying reopen\n",
                static_cast<unsigned long long>(store->applied_seq()));
    std::fflush(stdout);
    dkc::ReopenRetryOptions retry;
    retry.max_attempts = static_cast<int>(reopen_max_attempts);
    retry.initial_backoff_ms = static_cast<uint64_t>(reopen_backoff_ms);
    retry.reopen = [&] {
      std::unique_lock<std::shared_mutex> lock(store_mu);
      return store->Reopen();
    };
    const dkc::Status reopened = dkc::RetryReopen(&*store, retry);
    if (!reopened.ok()) {
      std::fprintf(stderr, "serve: reopen gave up after %ld attempts: %s\n",
                   reopen_max_attempts, reopened.ToString().c_str());
      return false;
    }
    ++reopens;
    std::printf("reopened: seq=%llu, ingest resumed\n",
                static_cast<unsigned long long>(store->applied_seq()));
    return true;
  };

  dkc::Timer timer;
  uint64_t applied = 0;
  dkc::Status ingest_error = dkc::Status::OK();
  size_t failed_op = 0;
  bool gave_up = false;
  // Stream entry i carries seq seq0 + (i - skip) + 1, so after a reopen
  // ingest resumes at the entry following the acknowledged boundary.
  const uint64_t seq0 = store->applied_seq();
  const auto resume_index = [&]() -> size_t {
    return static_cast<size_t>(static_cast<int64_t>(skip) +
                               static_cast<int64_t>(store->applied_seq()) -
                               static_cast<int64_t>(seq0));
  };
  // Guard against a sticky fault livelocking the seal/reopen/seal cycle: a
  // second seal with no acknowledged progress since the last one means
  // reopen is not fixing anything — give up instead of spinning.
  uint64_t last_seal_seq = UINT64_MAX;
  // Epoch-batched ingestion: one WAL append and one fsync per --batch
  // updates (--batch=0, the default, is one update per epoch, like
  // --batch=1). --crash-after acts at epoch granularity.
  const size_t n = static_cast<size_t>(std::max(batch, 1L));
  const std::span<const dkc::UpdateOp> all(ops);
  size_t i = static_cast<size_t>(skip);
  while (i < all.size()) {
    const size_t len = std::min(n, all.size() - i);
    const dkc::Status status = store->ApplyBatch(all.subspan(i, len));
    if (!status.ok()) {
      if (!store->sealed()) {  // clean refusal (validation) — no retry
        ingest_error = status;
        failed_op = i;
        break;
      }
      if (store->applied_seq() == last_seal_seq || !recover()) {
        ingest_error = store->seal_status();
        gave_up = true;
        break;
      }
      last_seal_seq = store->applied_seq();
      i = resume_index();
      continue;
    }
    applied += len;
    if (crash_after > 0 && applied >= static_cast<uint64_t>(crash_after)) {
      // Recovery drill: die without flushing or checkpointing. The WAL's
      // per-epoch fsync is the only thing allowed to save us.
      std::fprintf(stderr, "crash injection after %llu updates\n",
                   static_cast<unsigned long long>(applied));
      std::_Exit(7);
    }
    i += len;
  }
  const double total_ms = timer.ElapsedMillis();
  ingest_done.store(true, std::memory_order_release);
  for (std::thread& t : reader_threads) t.join();
  if (gave_up) {
    std::fprintf(stderr, "serve: store sealed and reopen exhausted: %s\n",
                 ingest_error.ToString().c_str());
    return 4;
  }
  if (!ingest_error.ok()) {
    std::fprintf(stderr, "serve: op %zu: %s\n", failed_op,
                 ingest_error.ToString().c_str());
    return ServeExitCode(ingest_error);
  }
  if (reopens > 0) {
    std::printf("reopens: %llu (sealed/degraded cycles survived)\n",
                static_cast<unsigned long long>(reopens));
  }
  if (!reader_threads.empty()) {
    std::printf("readers: %ld threads, %llu distinct epochs observed, "
                "%llu inconsistent views, %llu degraded reads\n",
                readers,
                static_cast<unsigned long long>(reader_epochs_seen.load()),
                static_cast<unsigned long long>(reader_inconsistent.load()),
                static_cast<unsigned long long>(reader_degraded_reads.load()));
    if (reader_inconsistent.load() != 0) return 1;
  }
  if (applied > 0) {
    std::printf("applied %llu updates in %.1f ms (%.0f ns/update, "
                "%llu checkpoints)\n",
                static_cast<unsigned long long>(applied), total_ms,
                1e6 * total_ms / static_cast<double>(applied),
                static_cast<unsigned long long>(store->checkpoints_taken()));
  }
  // A recovered store whose stream is used up still folds the WAL it
  // replayed into a fresh snapshot, so an empty feed compacts the log.
  if (applied > 0 || store->replayed_records() > 0) {
    dkc::Status final_checkpoint = store->Checkpoint();
    if (!final_checkpoint.ok() && store->sealed()) {
      // One more degraded cycle: a transient fault at the final checkpoint
      // is recoverable like any mid-stream one.
      if (!recover()) {
        std::fprintf(stderr, "serve: store sealed and reopen exhausted: %s\n",
                     final_checkpoint.ToString().c_str());
        return 4;
      }
      final_checkpoint = store->Checkpoint();
    }
    if (!final_checkpoint.ok()) {
      std::fprintf(stderr, "serve: final checkpoint: %s\n",
                   final_checkpoint.ToString().c_str());
      return ServeExitCode(final_checkpoint);
    }
  }

  const dkc::Status valid = dkc::VerifySolution(
      store->solver().graph().ToGraph(), store->solver().Snapshot());
  if (!valid.ok()) {
    std::fprintf(stderr, "internal error, invalid solution: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("final |S|=%u seq=%llu\n", store->solver().solution_size(),
              static_cast<unsigned long long>(store->applied_seq()));
  if (!store->retained_snapshots().empty()) {
    std::string seqs;
    for (uint64_t seq : store->retained_snapshots()) {
      if (!seqs.empty()) seqs += ' ';
      seqs += std::to_string(seq);
    }
    std::printf("retained point-in-time snapshots at seqs: %s\n",
                seqs.c_str());
  }

  const long top = static_cast<long>(flags.GetInt("top", 0));
  if (top > 0) {
    const auto view = store->solver().published_view();
    for (const auto& [score, gid] : view->TopK(static_cast<size_t>(top))) {
      std::string nodes;
      for (dkc::NodeId u : view->GroupMembers(gid)) {
        if (!nodes.empty()) nodes += ' ';
        nodes += std::to_string(u);
      }
      std::printf("top: group %u score %llu [%s]\n", gid,
                  static_cast<unsigned long long>(score), nodes.c_str());
    }
  }
  return 0;
}

int RunMatch(const dkc::Flags& flags, const dkc::Graph& g) {
  dkc::Timer timer;
  const bool exact = flags.GetBool("exact", false);
  const dkc::MatchingResult matching =
      exact ? dkc::MaximumMatching(g) : dkc::GreedyMatching(g);
  std::printf("%s matching: %llu pairs (%.1f%% of nodes) in %.1f ms\n",
              exact ? "maximum" : "greedy",
              static_cast<unsigned long long>(matching.size),
              100.0 * 2 * matching.size / g.num_nodes(),
              timer.ElapsedMillis());
  return dkc::IsValidMatching(g, matching.mate) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  dkc::Flags flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional()[0];
  for (const char* name : {"threads", "readers"}) {
    const int64_t count = flags.GetInt(name, 0);
    if (count > kMaxThreads) {
      std::fprintf(stderr,
                   "InvalidArgument: --%s=%lld is above the limit of %ld\n",
                   name, static_cast<long long>(count), kMaxThreads);
      return 1;
    }
  }

  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  if (command == "stats") return RunStats(flags, *graph);
  if (command == "solve") return RunSolve(flags, *graph);
  if (command == "verify") return RunVerify(flags, *graph);
  if (command == "cover") return RunCover(flags, *graph);
  if (command == "match") return RunMatch(flags, *graph);
  if (command == "update") return RunUpdate(flags, *graph);
  if (command == "serve") return RunServe(flags, *graph);
  return Usage();
}
