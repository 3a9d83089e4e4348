// Component micro-benchmarks (google-benchmark): the inner kernels whose
// constants decide the table-level numbers — sorted intersection, k-clique
// counting/scoring, the FindMin-backed lightweight solve, and single
// dynamic updates. Not a paper table; used to catch kernel regressions.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <string>
#include <vector>

#include "clique/kclique.h"
#include "core/basic_framework.h"
#include "core/lightweight.h"
#include "core/solver.h"
#include "dynamic/dynamic_solver.h"
#include "dynamic/workload.h"
#include "gen/generators.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "graph/preprocess.h"
#include "store/store.h"
#include "store/wal.h"
#include "util/cpu.h"

namespace {

dkc::Graph MakeWs(dkc::NodeId n, dkc::Count degree) {
  dkc::Rng rng(0xBE7C);
  return std::move(dkc::WattsStrogatz(n, degree, 0.1, rng)).value();
}

// The sparse-social shape the preprocessing pipeline targets: a few
// hundred planted k-cliques (the "teams") inside a large low-degree
// periphery (a random tree) — most nodes touch no k-clique, exactly the
// regime the paper's real datasets live in. Dense WS (MakeWs) is the
// other pole: clustered, clique-rich, barely prunable.
dkc::Graph MakeSparseSocial(int k) {
  dkc::PlantedCliqueSpec spec;
  spec.num_cliques = 300;
  spec.k = k;
  spec.filler_nodes = 40000;
  spec.noise_p = 0.0;
  dkc::Rng rng(0xAB);
  return std::move(std::move(dkc::PlantedCliques(spec, rng)).value().graph);
}

void BM_IntersectSorted(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::vector<dkc::NodeId> a(size), b(size), out;
  for (size_t i = 0; i < size; ++i) {
    a[i] = static_cast<dkc::NodeId>(2 * i);
    b[i] = static_cast<dkc::NodeId>(3 * i);
  }
  for (auto _ : state) {
    dkc::IntersectSorted(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * size));
}
BENCHMARK(BM_IntersectSorted)->Arg(16)->Arg(256)->Arg(4096);

// Random interleaving — real adjacency rows, unlike the strided inputs
// above, give the comparison branches no pattern to predict. One shared
// generator keeps the per-level rows below on byte-identical inputs.
void MakeRandomInterleaved(size_t size, std::vector<dkc::NodeId>* a,
                           std::vector<dkc::NodeId>* b) {
  dkc::Rng rng(0x5EED);
  dkc::NodeId next = 0;
  while (a->size() < size || b->size() < size) {
    next += 1 + static_cast<dkc::NodeId>(rng.NextBounded(3));
    const uint64_t pick = rng.NextBounded(3);
    if (pick != 1 && a->size() < size) a->push_back(next);
    if (pick != 0 && b->size() < size) b->push_back(next);
  }
}

void BM_IntersectSortedRandom(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::vector<dkc::NodeId> a, b, out;
  MakeRandomInterleaved(size, &a, &b);
  for (auto _ : state) {
    dkc::IntersectSorted(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * size));
}
BENCHMARK(BM_IntersectSortedRandom)->Arg(16)->Arg(256)->Arg(4096);

// The per-level A/B behind the SIMD dispatch: the same random
// interleavings under a forced dispatch level, so one run records the
// scalar-vs-SSE-vs-AVX2 crossover directly. Args are {size, level}
// (level: 0 = scalar, 1 = SSE4.2, 2 = AVX2); rows above the host's
// capability are skipped rather than silently downgraded. Sizes below
// the crossover show the dispatch overhead the inline small-size gates
// avoid; sizes above show the block-intersection win.
void BM_IntersectSortedLevel(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const auto level = static_cast<dkc::SimdLevel>(state.range(1));
  if (level > dkc::CpuSimdLevel()) {
    state.SkipWithError("level not supported by this host");
    return;
  }
  std::vector<dkc::NodeId> a, b, out;
  MakeRandomInterleaved(size, &a, &b);
  dkc::SetSimdLevelOverride(level);
  for (auto _ : state) {
    dkc::IntersectSorted(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  dkc::ClearSimdLevelOverride();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * size));
  state.SetLabel(dkc::SimdLevelName(level));
}
BENCHMARK(BM_IntersectSortedLevel)
    ->ArgsProduct({{8, 16, 32, 64, 128, 256, 1024, 4096}, {0, 1, 2}});

void BM_DegeneracyOrdering(benchmark::State& state) {
  dkc::Graph g = MakeWs(static_cast<dkc::NodeId>(state.range(0)), 16);
  for (auto _ : state) {
    auto ordering = dkc::DegeneracyOrdering(g);
    benchmark::DoNotOptimize(ordering.rank.data());
  }
}
BENCHMARK(BM_DegeneracyOrdering)->Arg(1000)->Arg(10000);

void BM_CountKCliques(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 16);
  dkc::Dag dag(g, dkc::DegeneracyOrdering(g));
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dkc::CountKCliques(dag, k));
  }
}
BENCHMARK(BM_CountKCliques)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

// Pool-parallel whole-graph counting; args are {k, threads}. On a
// single-core host this mostly measures scheduling overhead — record it
// anyway so multi-core hosts have a baseline to compare against.
void BM_CountKCliquesThreads(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 16);
  dkc::Dag dag(g, dkc::DegeneracyOrdering(g));
  const int k = static_cast<int>(state.range(0));
  dkc::ThreadPool pool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dkc::CountKCliques(dag, k, &pool));
  }
}
BENCHMARK(BM_CountKCliquesThreads)->Args({6, 2})->Args({6, 4});

void BM_NodeScores(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 16);
  dkc::Dag dag(g, dkc::DegeneracyOrdering(g));
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto scores = dkc::ComputeNodeScores(dag, k);
    benchmark::DoNotOptimize(scores.per_node.data());
  }
}
BENCHMARK(BM_NodeScores)->Arg(3)->Arg(5);

void BM_LightweightSolve(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 16);
  dkc::LightweightOptions options;
  options.k = static_cast<int>(state.range(0));
  options.enable_score_pruning = state.range(1) != 0;
  for (auto _ : state) {
    auto result = dkc::SolveLightweight(g, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_LightweightSolve)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({6, 0})
    ->Args({6, 1});  // pruning off/on: the L vs LP ablation at kernel level

// Full LP solve across a pool; args are {k, threads}. Solutions are
// byte-identical to the serial run (the thread-sweep harness proves it);
// this records the wall-clock side of that trade.
void BM_LightweightSolveThreads(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 16);
  dkc::LightweightOptions options;
  options.k = static_cast<int>(state.range(0));
  options.enable_score_pruning = true;
  dkc::ThreadPool pool(static_cast<size_t>(state.range(1)));
  options.pool = &pool;
  for (auto _ : state) {
    auto result = dkc::SolveLightweight(g, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_LightweightSolveThreads)->Args({6, 2})->Args({6, 4});

// HG end-to-end; args are {k, threads}. HG's sweep is serial, so only the
// threads == 1 row remains (its name is kept for trend continuity).
void BM_BasicSolveThreads(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 16);
  dkc::BasicOptions options;
  options.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = dkc::SolveBasic(g, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_BasicSolveThreads)->Args({4, 1});

// The preprocessing pipeline itself ((k-1)-core + triangle-support
// fixpoint + compaction). Args are {k, sparse}: sparse == 1 runs the
// prunable sparse-social instance (the win case), sparse == 0 the dense
// WS graph (the overhead case — nothing peels, ~10% of edges drop).
void BM_Preprocess(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  dkc::Graph g = state.range(1) != 0 ? MakeSparseSocial(k) : MakeWs(2000, 16);
  dkc::PreprocessOptions options;
  options.k = k;
  for (auto _ : state) {
    auto result = dkc::PreprocessForKCliques(g, options);
    benchmark::DoNotOptimize(result.pruned.num_nodes());
  }
}
BENCHMARK(BM_Preprocess)->Args({4, 0})->Args({6, 0})->Args({4, 1})->Args({6, 1});

// End-to-end LP solve through the Solve() facade on the sparse-social
// instance; args are {k, preprocess}. The preprocessed run includes the
// whole pipeline and produces the byte-identical solution (default
// order-preserving mode) — the shrink is what pays.
void BM_LightweightSolvePrepruned(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  dkc::Graph g = MakeSparseSocial(k);
  dkc::SolverOptions options;
  options.k = k;
  options.method = dkc::Method::kLP;
  options.preprocess = state.range(1) != 0;
  for (auto _ : state) {
    auto result = dkc::Solve(g, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_LightweightSolvePrepruned)
    ->Args({6, 0})
    ->Args({6, 1})
    ->Args({4, 0})
    ->Args({4, 1});

// End-to-end k-clique counting on the sparse-social instance; args are
// {k, preprocess}. Counts are a pure function of the graph (no ordering
// dependence), so the preprocessed run uses reorder mode and skips the
// full-graph degeneracy pass the order-preserving mode would need.
void BM_CountKCliquesPrepruned(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  dkc::Graph g = MakeSparseSocial(k);
  const bool preprocess = state.range(1) != 0;
  dkc::PreprocessOptions options;
  options.k = k;
  options.reorder = true;
  for (auto _ : state) {
    if (preprocess) {
      auto pre = dkc::PreprocessForKCliques(g, options);
      dkc::Dag dag(pre.pruned, std::move(pre.orientation));
      benchmark::DoNotOptimize(dkc::CountKCliques(dag, k));
    } else {
      dkc::Dag dag(g, dkc::DegeneracyOrdering(g));
      benchmark::DoNotOptimize(dkc::CountKCliques(dag, k));
    }
  }
}
BENCHMARK(BM_CountKCliquesPrepruned)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({6, 0})
    ->Args({6, 1});

// End-to-end HG through the facade on the sparse-social instance; args
// are {k, preprocess}. HG's sweep is first-hit and skips low-out-degree
// roots already, so preprocessing trades its pipeline for the full-graph
// DAG build — record both sides of that trade.
void BM_BasicSolvePrepruned(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  dkc::Graph g = MakeSparseSocial(k);
  dkc::SolverOptions options;
  options.k = k;
  options.method = dkc::Method::kHG;
  options.preprocess = state.range(1) != 0;
  for (auto _ : state) {
    auto result = dkc::Solve(g, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_BasicSolvePrepruned)->Args({4, 0})->Args({4, 1});

void BM_DynamicUpdate(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 12);
  dkc::Rng rng(0xD11);
  auto workload = dkc::MakeMixedWorkload(g, 4096, 4096, rng);
  dkc::DynamicOptions options;
  options.k = static_cast<int>(state.range(0));
  auto solver = dkc::DynamicSolver::Build(workload.prepared, options);
  if (!solver.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& op = workload.ops[i % workload.ops.size()];
    // Alternate the op with its inverse so state stays reusable.
    dkc::Status status;
    if (solver->graph().HasEdge(op.edge.first, op.edge.second)) {
      status = solver->DeleteEdge(op.edge.first, op.edge.second);
    } else {
      status = solver->InsertEdge(op.edge.first, op.edge.second);
    }
    benchmark::DoNotOptimize(status.ok());
    ++i;
  }
}
BENCHMARK(BM_DynamicUpdate)->Arg(3)->Arg(4)->Arg(5);

// WAL append without fsync: the user-space persist hot path (encode +
// fwrite). With fsync on the row measures the disk, not the code, so the
// no-sync variant is the one that would expose any overhead added to the
// syscall seam in builds where fault injection is compiled out.
void BM_WalAppendNoSync(benchmark::State& state) {
  const std::string path = "/tmp/dkc_bench_wal.wal";
  std::remove(path.c_str());
  auto writer = dkc::WalWriter::Open(path);
  if (!writer.ok()) {
    state.SkipWithError("WAL open failed");
    return;
  }
  dkc::WalRecord rec;
  rec.is_insert = true;
  rec.u = 17;
  rec.v = 42;
  for (auto _ : state) {
    ++rec.seq;
    const dkc::Status status = writer->Append(rec, /*sync=*/false);
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  std::remove(path.c_str());
}
BENCHMARK(BM_WalAppendNoSync);

// Persisted single-update apply, fsync off: WAL encode + buffered append +
// engine apply. The fsync-on figure (~120us/update on this container) is
// recorded by bench_fig7_table8_updates --persist.
void BM_StoreApplyNoSync(benchmark::State& state) {
  dkc::Graph g = MakeWs(2000, 12);
  dkc::Rng rng(0xD12);
  auto workload = dkc::MakeMixedWorkload(g, 4096, 4096, rng);
  dkc::StoreOptions options;
  options.dynamic.k = 3;
  options.sync_every_append = false;
  const std::string snapshot = "/tmp/dkc_bench_store.snap";
  const std::string wal = "/tmp/dkc_bench_store.wal";
  auto store =
      dkc::DurableStore::Create(workload.prepared, snapshot, wal, options);
  if (!store.ok()) {
    state.SkipWithError("store create failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& op = workload.ops[i % workload.ops.size()];
    dkc::UpdateOp next;
    next.edge = op.edge;
    // Alternate the op with its inverse so state stays reusable.
    next.is_insert =
        !store->solver().graph().HasEdge(op.edge.first, op.edge.second);
    const dkc::Status status = store->Apply(next);
    benchmark::DoNotOptimize(status.ok());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  std::remove(snapshot.c_str());
  std::remove(wal.c_str());
}
BENCHMARK(BM_StoreApplyNoSync);

// --json=path: machine-readable results beside the normal console table —
// one JSON document with a row per benchmark run, consumed by the CI
// artifact upload. Sticks to reporter fields that are stable across
// google-benchmark releases (name, iterations, adjusted real/cpu time).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    int64_t iterations;
    double real_time_ns;
    double cpu_time_ns;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      rows_.push_back(Row{run.benchmark_name(), run.iterations,
                          ToNanos(run, run.GetAdjustedRealTime()),
                          ToNanos(run, run.GetAdjustedCPUTime())});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  static double ToNanos(const Run& run, double in_time_unit) {
    switch (run.time_unit) {
      case benchmark::kNanosecond:
        return in_time_unit;
      case benchmark::kMicrosecond:
        return in_time_unit * 1e3;
      case benchmark::kMillisecond:
        return in_time_unit * 1e6;
      default:
        return in_time_unit * 1e9;  // seconds
    }
  }

  std::vector<Row> rows_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

bool WriteJson(const std::string& path,
               const std::vector<CapturingReporter::Row>& rows) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open --json file '%s'\n", path.c_str());
    return false;
  }
  out << "{\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"iterations\": %lld, \"real_time_ns\": %.3f, "
                  "\"cpu_time_ns\": %.3f}",
                  static_cast<long long>(rows[i].iterations),
                  rows[i].real_time_ns, rows[i].cpu_time_ns);
    out << "    {\"name\": \"" << JsonEscape(rows[i].name) << "\", " << buf
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  // Peel --json=path off before google-benchmark sees the argv (it rejects
  // flags it does not know).
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() && !WriteJson(json_path, reporter.rows())) return 1;
  return 0;
}
