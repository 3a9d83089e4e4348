#include "clique/kclique.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace dkc {

Count KCliqueEnumerator::CountRooted(NodeId u) {
  if (k_ == 1) return 1;
  if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return 0;
  kernel_.BuildFromRoot(dag_, u);
  return kernel_.CountCliques(k_ - 1);
}

Count KCliqueEnumerator::ScoreRooted(NodeId u, std::vector<Count>* counts) {
  if (k_ == 1) {
    ++(*counts)[u];
    return 1;
  }
  if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return 0;
  kernel_.BuildFromRoot(dag_, u);
  // The kernel credits the (k-1)-clique members; every one of those cliques
  // also contains the root, which therefore gains the rooted total.
  const Count total = kernel_.ScoreCliques(k_ - 1, counts);
  (*counts)[u] += total;
  return total;
}

Count CountKCliques(const Dag& dag, int k, ThreadPool* pool,
                    const Deadline& deadline, bool* oot) {
  Count total = 0;
  struct State {
    std::unique_ptr<KernelArena> arena;  // stable address across State moves
    KCliqueEnumerator enumerator;
    Count local = 0;
  };
  const bool completed = ParallelChunks(
      pool, dag.num_nodes(), deadline,
      [&] {
        auto arena = std::make_unique<KernelArena>();
        KernelArena* raw = arena.get();
        return State{std::move(arena), KCliqueEnumerator(dag, k, raw), 0};
      },
      [](size_t, NodeId begin, NodeId end, State* s) {
        for (NodeId u = begin; u < end; ++u) {
          s->local += s->enumerator.CountRooted(u);
        }
        return true;
      },
      [&](State* s) { total += s->local; });
  if (oot != nullptr) *oot = !completed;
  return total;
}

NodeScores ComputeNodeScores(const Dag& dag, int k, ThreadPool* pool,
                             const Deadline& deadline, bool* oot) {
  NodeScores result;
  result.per_node.assign(dag.num_nodes(), 0);
  struct State {
    std::unique_ptr<KernelArena> arena;  // stable address across State moves
    KCliqueEnumerator enumerator;
    std::vector<Count> counts;
    Count local_total = 0;
  };
  const bool completed = ParallelChunks(
      pool, dag.num_nodes(), deadline,
      [&] {
        auto arena = std::make_unique<KernelArena>();
        KernelArena* raw = arena.get();
        return State{std::move(arena), KCliqueEnumerator(dag, k, raw),
                     std::vector<Count>(dag.num_nodes(), 0), 0};
      },
      [](size_t, NodeId begin, NodeId end, State* s) {
        for (NodeId u = begin; u < end; ++u) {
          s->local_total += s->enumerator.ScoreRooted(u, &s->counts);
        }
        return true;
      },
      [&](State* s) {
        result.total_cliques += s->local_total;
        for (NodeId u = 0; u < s->counts.size(); ++u) {
          result.per_node[u] += s->counts[u];
        }
      });
  if (oot != nullptr) *oot = !completed;
  return result;
}

void ForEachKCliqueInSubset(
    const DynamicGraph& g, std::span<const NodeId> subset, int k,
    const std::function<bool(std::span<const NodeId>)>& cb,
    NeighborhoodKernel* kernel, EnumBudget* budget) {
  if (subset.size() < static_cast<size_t>(k)) return;
  // Fallback kernel (and its arena allocation) only when the caller has no
  // persistent one — the dynamic engine's per-update path always does.
  std::optional<NeighborhoodKernel> local;
  if (kernel == nullptr) kernel = &local.emplace();
  kernel->BuildFromSubset(g, subset);
  kernel->ForEachClique(k, cb, /*eager=*/false, budget);
}

namespace {

// Budget cadence of the listing pass: each worker charges / checks once per
// this many cliques it lists, and charges that many cliques' storage.
constexpr Count kListCheckPeriod = 0x1000;

int64_t ListChargeBytes(int k) {
  return static_cast<int64_t>(kListCheckPeriod) * k *
         static_cast<int64_t>(sizeof(NodeId));
}

}  // namespace

Status ListKCliques(const Dag& dag, int k, ThreadPool* pool,
                    const Deadline& deadline, MemoryBudget* memory,
                    const char* what, CliqueStore* store,
                    std::vector<Count>* node_scores) {
  std::atomic<bool> oom{false};
  Count listed = 0;
  // Ordered reduction: each worker lists a whole chunk of roots into its
  // flat buffer (k node ids per clique); finished chunks are drained into
  // the store strictly in ascending chunk order, which reproduces the
  // serial enumeration order exactly. Whoever finishes the next chunk to
  // drain also drains every already-finished successor, so at one worker
  // this streams one chunk at a time and at P workers only the chunks
  // finished ahead of a slow one wait in `parked`.
  std::mutex drain_mu;
  size_t next_chunk = 0;
  std::vector<std::vector<NodeId>> parked;
  std::vector<uint8_t> finished;
  auto drain = [&](std::vector<NodeId>* buf) {
    for (size_t i = 0; i + k <= buf->size(); i += k) {
      const std::span<const NodeId> nodes(buf->data() + i, k);
      store->Add(nodes);
      if (node_scores != nullptr) {
        for (NodeId u : nodes) ++(*node_scores)[u];
      }
    }
    buf->clear();
  };
  struct State {
    std::unique_ptr<KernelArena> arena;  // stable address across State moves
    KCliqueEnumerator enumerator;
    std::vector<NodeId> buf;
    Count since_check = 0;
  };
  const bool completed = ParallelChunks(
      pool, dag.num_nodes(), deadline,
      [&] {
        auto arena = std::make_unique<KernelArena>();
        KernelArena* raw = arena.get();
        return State{std::move(arena), KCliqueEnumerator(dag, k, raw), {}, 0};
      },
      [&](size_t c, NodeId begin, NodeId end, State* s) {
        auto list = [&](std::span<const NodeId> nodes) {
          s->buf.insert(s->buf.end(), nodes.begin(), nodes.end());
          if ((++s->since_check & (kListCheckPeriod - 1)) != 0) return true;
          // MemoryBudget is atomic, so concurrent charges keep the OOM
          // decision sound (if approximately timed).
          if (memory != nullptr && !memory->Charge(ListChargeBytes(k))) {
            oom.store(true, std::memory_order_relaxed);
            return false;
          }
          return !deadline.Expired();
        };
        for (NodeId u = begin; u < end; ++u) {
          if (!s->enumerator.ForEachRooted(u, list)) return false;
        }
        std::lock_guard<std::mutex> lock(drain_mu);
        if (c != next_chunk) {
          if (c >= parked.size()) {
            parked.resize(c + 1);
            finished.resize(c + 1, 0);
          }
          parked[c].swap(s->buf);
          finished[c] = 1;
          return true;
        }
        drain(&s->buf);
        ++next_chunk;
        for (; next_chunk < finished.size() && finished[next_chunk];
             ++next_chunk) {
          // Release each parked chunk as it lands in the store: the budget
          // charges one copy of the cliques, so don't hold two.
          drain(&parked[next_chunk]);
          std::vector<NodeId>().swap(parked[next_chunk]);
        }
        return true;
      },
      [&](State* s) { listed += s->since_check; });
  if (oom.load()) {
    return Status::MemoryBudgetExceeded(
        std::string(what) + " clique store after " + std::to_string(listed) +
        " cliques");
  }
  if (!completed) {
    return Status::TimeBudgetExceeded(std::string(what) +
                                      " clique enumeration");
  }
  return Status::OK();
}

}  // namespace dkc
