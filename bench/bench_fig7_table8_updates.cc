// Figure 7 and Table VIII: dynamic update performance.
//
// Per dataset and k: run the paper's three workloads — W deletions of
// sampled edges, W insertions (adding them back), and a 2W mixed stream on
// a prepared graph — reporting the average time per update in nanoseconds
// (Fig. 7) and the size of the maintained S relative to rebuilding from
// scratch on the final graph (Table VIII's Δ).
//
// W defaults to 1000 (the paper uses 10K at its dataset scale); small
// datasets automatically clamp to their edge counts.
//
// --threads=<n> runs the dynamic engine's pool-parallel paths (initial
// solve + index build, per-update candidate-rebuild fan-outs, packing
// sort) across n workers; maintained solutions are byte-identical to the
// serial run at any thread count.
//
// --persist additionally replays the mixed stream through the durable
// store (WAL append + fsync per update, src/store), reporting the
// persisted-mode cost next to the in-memory number; --persist-no-sync
// drops the per-append fsync to isolate the logging overhead from the
// disk-flush overhead. Temp files go to --persist-dir (default /tmp).
//
// --batch=N adds the epoch-batched ingestion section: the mixed stream
// replayed through DynamicSolver::ApplyBatch in epochs of N (reporting
// updates/sec and deduped dirty-slot rebuilds per update), a
// hot-neighborhood burst stream where the dedup bites hardest, and — with
// --persist — the epoch-commit table: persisted batch=1 vs batch=N with
// fsync on and off, i.e. the N-updates-one-fsync amortization headline.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datasets.h"
#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "store/store.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

struct UpdateRun {
  bool ok = false;
  double avg_ns = 0;
  int64_t delta_vs_scratch = 0;  // maintained |S| minus from-scratch |S|
  double rebuilds_per_update = -1;  // batched runs: deduped rebuilds ratio
};

int64_t FromScratchSize(const dkc::Graph& g, int k, double budget_ms) {
  dkc::SolverOptions options;
  options.k = k;
  options.method = dkc::Method::kLP;
  options.budget.time_ms = budget_ms;
  auto result = dkc::Solve(g, options);
  return result.ok() ? static_cast<int64_t>(result->size()) : -1;
}

// Applies `ops` on a fresh solver over `start`; fills timing and ΔS.
UpdateRun Run(const dkc::Graph& start,
              const std::vector<dkc::UpdateOp>& ops, int k,
              double budget_ms, dkc::ThreadPool* pool) {
  UpdateRun run;
  dkc::DynamicOptions options;
  options.k = k;
  options.initial_budget.time_ms = budget_ms;
  options.pool = pool;
  auto solver = dkc::DynamicSolver::Build(start, options);
  if (!solver.ok()) return run;
  dkc::Timer timer;
  for (const auto& op : ops) {
    const dkc::Status status =
        op.is_insert ? solver->InsertEdge(op.edge.first, op.edge.second)
                     : solver->DeleteEdge(op.edge.first, op.edge.second);
    if (!status.ok()) return run;
  }
  const double total_ns = static_cast<double>(timer.ElapsedNanos());
  const int64_t scratch =
      FromScratchSize(solver->graph().ToGraph(), k, budget_ms);
  if (scratch < 0) return run;
  run.ok = true;
  run.avg_ns = ops.empty() ? 0 : total_ns / static_cast<double>(ops.size());
  run.delta_vs_scratch =
      static_cast<int64_t>(solver->solution_size()) - scratch;
  return run;
}

// Applies `ops` in epochs of `batch` through ApplyBatch on a fresh solver;
// fills timing and the deduped-rebuilds ratio (dirty-slot rebuilds per
// update — below 1.0 means batching merged rebuilds of repeatedly-hit
// slots that the unbatched path would redo per update).
UpdateRun RunBatched(const dkc::Graph& start,
                     const std::vector<dkc::UpdateOp>& ops, int k,
                     size_t batch, double budget_ms, dkc::ThreadPool* pool) {
  UpdateRun run;
  dkc::DynamicOptions options;
  options.k = k;
  options.initial_budget.time_ms = budget_ms;
  options.pool = pool;
  auto solver = dkc::DynamicSolver::Build(start, options);
  if (!solver.ok()) return run;
  const std::span<const dkc::UpdateOp> all(ops);
  dkc::Timer timer;
  for (size_t i = 0; i < all.size(); i += batch) {
    const auto epoch = all.subspan(i, std::min(batch, all.size() - i));
    if (!solver->ApplyBatch(epoch).ok()) return run;
  }
  const double total_ns = static_cast<double>(timer.ElapsedNanos());
  run.ok = true;
  run.avg_ns = ops.empty() ? 0 : total_ns / static_cast<double>(ops.size());
  const uint64_t applied = solver->updates_applied();
  run.rebuilds_per_update =
      applied == 0 ? 0
                   : static_cast<double>(solver->batch_dirty_rebuilds()) /
                         static_cast<double>(applied);
  return run;
}

// Replays `ops` through a DurableStore at `dir` — the serving
// configuration: every update WAL-logged (and fsynced unless !sync)
// before it is applied, in ApplyBatch epochs of `batch` updates (one
// fsync per epoch; batch=0 is one update per epoch, like batch=1). The
// maintained solution is identical to the in-memory run; only the
// durability cost differs.
UpdateRun RunPersisted(const dkc::Graph& start,
                       const std::vector<dkc::UpdateOp>& ops, int k,
                       double budget_ms, dkc::ThreadPool* pool,
                       const std::string& dir, bool sync, size_t batch = 0) {
  UpdateRun run;
  dkc::StoreOptions options;
  options.dynamic.k = k;
  options.dynamic.initial_budget.time_ms = budget_ms;
  options.dynamic.pool = pool;
  options.sync_every_append = sync;
  const std::string tag = dir + "/dkc_bench_persist_k" + std::to_string(k);
  auto store = dkc::DurableStore::Create(start, tag + ".snap", tag + ".wal",
                                         options);
  if (!store.ok()) return run;
  dkc::Timer timer;
  const size_t step = std::max<size_t>(batch, 1);
  const std::span<const dkc::UpdateOp> all(ops);
  for (size_t i = 0; i < all.size(); i += step) {
    const auto epoch = all.subspan(i, std::min(step, all.size() - i));
    if (!store->ApplyBatch(epoch).ok()) return run;
  }
  const double total_ns = static_cast<double>(timer.ElapsedNanos());
  run.ok = true;
  run.avg_ns = ops.empty() ? 0 : total_ns / static_cast<double>(ops.size());
  std::remove((tag + ".snap").c_str());
  std::remove((tag + ".wal").c_str());
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  dkc::Flags flags(argc, argv);
  const auto config = dkc::bench::BenchConfig::FromFlags(flags);
  const size_t w = static_cast<size_t>(
      flags.GetInt("updates", config.smoke ? 100 : 1000));
  const long threads = flags.GetInt("threads", 1);
  std::unique_ptr<dkc::ThreadPool> pool;
  if (threads >= 2) {
    pool = std::make_unique<dkc::ThreadPool>(static_cast<size_t>(threads));
  }

  const bool persist = flags.GetBool("persist", false);
  const bool persist_sync = !flags.GetBool("persist-no-sync", false);
  const std::string persist_dir = flags.GetString("persist-dir", "/tmp");
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 0));

  struct RowResult {
    std::string name;
    std::vector<UpdateRun> del, ins, mix;  // one entry per k
    std::vector<UpdateRun> mix_persisted;  // --persist only
    // --batch=N only: epoch-batched mixed stream (in-memory) and a
    // hot-neighborhood burst stream (where dedup bites hardest).
    std::vector<UpdateRun> mix_batched, hot_batched;
    // --persist --batch=N: group-commit amortization — persisted batch=1
    // vs batch=N, each with the configured fsync mode, plus batch=N with
    // fsync off to isolate logging from flushing.
    std::vector<UpdateRun> persist_b1, persist_bn, persist_bn_nosync;
  };
  std::vector<RowResult> rows;

  for (const auto& spec : dkc::bench::PaperSuite()) {
    dkc::Graph g = dkc::bench::Materialize(spec, config.scale);
    dkc::Rng rng(spec.seed + 0xF17);
    // Deletion workload W edges; insertion adds the same edges back to the
    // deleted graph; mixed = the paper's prepared-graph stream.
    const size_t count = std::min<size_t>(w, g.num_edges() / 2);
    auto victims = dkc::SampleEdges(g, count, rng);
    dkc::Graph without = dkc::RemoveEdges(g, victims);
    std::vector<dkc::UpdateOp> deletions, insertions;
    for (const auto& e : victims) {
      deletions.push_back({false, e});
      insertions.push_back({true, e});
    }
    dkc::MixedWorkload mixed = dkc::MakeMixedWorkload(g, count, count, rng);
    std::vector<dkc::UpdateOp> hot;
    if (batch >= 1) {
      hot = dkc::MakeHotNeighborhoodStream(g, 2 * count, /*hot_nodes=*/8,
                                           rng);
    }

    RowResult row;
    row.name = spec.name;
    for (int k = config.kmin; k <= config.kmax; ++k) {
      row.del.push_back(Run(g, deletions, k, config.budget_ms, pool.get()));
      row.ins.push_back(
          Run(without, insertions, k, config.budget_ms, pool.get()));
      row.mix.push_back(
          Run(mixed.prepared, mixed.ops, k, config.budget_ms, pool.get()));
      if (persist) {
        row.mix_persisted.push_back(
            RunPersisted(mixed.prepared, mixed.ops, k, config.budget_ms,
                         pool.get(), persist_dir, persist_sync));
      }
      if (batch >= 1) {
        row.mix_batched.push_back(RunBatched(mixed.prepared, mixed.ops, k,
                                             batch, config.budget_ms,
                                             pool.get()));
        row.hot_batched.push_back(
            RunBatched(g, hot, k, batch, config.budget_ms, pool.get()));
        if (persist) {
          row.persist_b1.push_back(
              RunPersisted(mixed.prepared, mixed.ops, k, config.budget_ms,
                           pool.get(), persist_dir, persist_sync, 1));
          row.persist_bn.push_back(
              RunPersisted(mixed.prepared, mixed.ops, k, config.budget_ms,
                           pool.get(), persist_dir, persist_sync, batch));
          row.persist_bn_nosync.push_back(
              RunPersisted(mixed.prepared, mixed.ops, k, config.budget_ms,
                           pool.get(), persist_dir, /*sync=*/false, batch));
        }
      }
    }
    rows.push_back(std::move(row));
  }

  auto print_time_table = [&](const char* title,
                              std::vector<UpdateRun> RowResult::*member) {
    std::printf("\n### Fig. 7 — %s: average update time (ns)\n\n", title);
    std::vector<std::string> header = {"Dataset"};
    for (int k = config.kmin; k <= config.kmax; ++k) {
      header.push_back("k=" + std::to_string(k));
    }
    dkc::bench::PrintHeader(header);
    for (const auto& row : rows) {
      std::vector<std::string> cells = {row.name};
      for (const auto& run : row.*member) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.0f", run.avg_ns);
        cells.push_back(run.ok ? buffer : "ERR");
      }
      dkc::bench::PrintRow(cells);
    }
  };

  std::printf("## Figure 7: average update time (W=%zu per workload, "
              "scale=%.2f, threads=%ld)\n", w, config.scale,
              threads >= 2 ? threads : 1);
  print_time_table("deletions", &RowResult::del);
  print_time_table("insertions", &RowResult::ins);
  print_time_table("mixed", &RowResult::mix);
  if (persist) {
    std::printf("\n(persisted mode: WAL append%s per update, src/store)\n",
                persist_sync ? " + fsync" : ", no fsync");
    print_time_table("mixed, persisted", &RowResult::mix_persisted);
  }

  if (batch >= 1) {
    std::printf("\n## Batched ingestion (epochs of %zu, "
                "DynamicSolver::ApplyBatch)\n", batch);
    print_time_table("mixed, batched", &RowResult::mix_batched);

    // The dedup headline: one rebuild per dirty slot per epoch, however
    // many updates of the epoch touched it. Below 1.0 = merged work.
    auto print_dedup_table = [&](const char* title,
                                 std::vector<UpdateRun> RowResult::*member) {
      std::printf("\n### %s: deduped dirty-slot rebuilds per update\n\n",
                  title);
      std::vector<std::string> header = {"Dataset"};
      for (int k = config.kmin; k <= config.kmax; ++k) {
        header.push_back("k=" + std::to_string(k));
      }
      dkc::bench::PrintHeader(header);
      for (const auto& row : rows) {
        std::vector<std::string> cells = {row.name};
        for (const auto& run : row.*member) {
          char buffer[32];
          std::snprintf(buffer, sizeof(buffer), "%.2f",
                        run.rebuilds_per_update);
          cells.push_back(run.ok ? buffer : "ERR");
        }
        dkc::bench::PrintRow(cells);
      }
    };
    print_dedup_table("mixed stream", &RowResult::mix_batched);
    print_time_table("hot-neighborhood burst, batched",
                     &RowResult::hot_batched);
    print_dedup_table("hot-neighborhood burst", &RowResult::hot_batched);

    if (persist) {
      // Group-commit amortization: N updates share one fsync. Speedup is
      // persisted batch=1 over batch=N, same fsync mode.
      std::printf("\n### persisted group commit: ns/update "
                  "(batch=1 vs batch=%zu%s, and batch=%zu without fsync)\n\n",
                  batch, persist_sync ? ", fsync per epoch" : ", no fsync",
                  batch);
      std::vector<std::string> header = {"Dataset", "k", "batch=1",
                                         "batch=N", "speedup", "no-fsync"};
      dkc::bench::PrintHeader(header);
      for (const auto& row : rows) {
        for (int k = config.kmin; k <= config.kmax; ++k) {
          const size_t i = static_cast<size_t>(k - config.kmin);
          const UpdateRun& b1 = row.persist_b1[i];
          const UpdateRun& bn = row.persist_bn[i];
          const UpdateRun& nf = row.persist_bn_nosync[i];
          char c1[32], cn[32], cs[32], cf[32];
          std::snprintf(c1, sizeof(c1), "%.0f", b1.avg_ns);
          std::snprintf(cn, sizeof(cn), "%.0f", bn.avg_ns);
          std::snprintf(cs, sizeof(cs), "%.1fx",
                        bn.avg_ns > 0 ? b1.avg_ns / bn.avg_ns : 0.0);
          std::snprintf(cf, sizeof(cf), "%.0f", nf.avg_ns);
          dkc::bench::PrintRow({row.name, std::to_string(k),
                                b1.ok ? c1 : "ERR", bn.ok ? cn : "ERR",
                                b1.ok && bn.ok ? cs : "ERR",
                                nf.ok ? cf : "ERR"});
        }
      }
    }
  }

  std::printf("\n## Table VIII: quality of S after updates (Δ vs building "
              "from scratch)\n");
  auto print_delta_table = [&](const char* title,
                               std::vector<UpdateRun> RowResult::*member) {
    std::printf("\n### after %s\n\n", title);
    std::vector<std::string> header = {"Dataset"};
    for (int k = config.kmin; k <= config.kmax; ++k) {
      header.push_back("k=" + std::to_string(k));
    }
    dkc::bench::PrintHeader(header);
    for (const auto& row : rows) {
      std::vector<std::string> cells = {row.name};
      for (const auto& run : row.*member) {
        cells.push_back(run.ok ? dkc::bench::FormatDelta(run.delta_vs_scratch)
                               : "ERR");
      }
      dkc::bench::PrintRow(cells);
    }
  };
  print_delta_table("deletions", &RowResult::del);
  print_delta_table("insertions", &RowResult::ins);
  print_delta_table("mixed updates", &RowResult::mix);

  std::printf("\nExpected shape vs paper Fig. 7 / Table VIII: updates cost "
              "micro- not milliseconds\nand grow with k; ΔS stays within a "
              "fraction of a percent of |S| (sometimes\npositive — the swap "
              "reaches local optima a fresh greedy run misses).\n");
  return 0;
}
