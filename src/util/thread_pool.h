// A small fixed-size thread pool and the one driver every pooled pass runs
// on.
//
// The paper parallelizes two phases (Algorithm 3 HeapInit and Algorithm 5
// candidate-index construction) with "for each ... in parallel", and every
// pooled pass in the library has that shape: P workers, each with private
// scratch (a kernel and its arena, local accumulators), pulling chunks of
// an index range off one atomic cursor. ParallelChunks is that loop; no
// futures or task graphs.

#ifndef DKC_UTIL_THREAD_POOL_H_
#define DKC_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/timer.h"

namespace dkc {

/// Fixed-size worker pool. Threads are joined on destruction.
class ThreadPool {
 public:
  /// `num_threads == 0` picks std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueue one task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void Wait();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: work or shutdown
  std::condition_variable idle_cv_;   // signals Wait(): all drained
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Runs `body` over [0, count) in chunks on `pool`'s workers and blocks
/// until they finish. Each worker builds one state with `make_state()`,
/// then repeatedly claims the next chunk off a shared cursor and calls
/// `body(chunk_index, begin, end, &state)`; chunk c is
/// [c * size, min(count, (c + 1) * size)) with
/// size = clamp(count / (4 * workers), 1, 256), so small ranges still
/// interleave across workers (clique workloads are skewed; dynamic
/// scheduling smooths them out). The deadline is checked before every
/// chunk, and a body returning false stops every worker before its next
/// chunk. `merge(&state)` then runs once per state, under a lock, in an
/// unspecified order: order-sensitive passes key their output by chunk
/// index instead. With a null or 1-thread pool, or count < 2 * workers,
/// the same worker runs once inline (workers = 1). Returns false iff the
/// deadline expired or a body stopped.
template <typename MakeState, typename Body, typename Merge>
bool ParallelChunks(ThreadPool* pool, size_t count, const Deadline& deadline,
                    MakeState make_state, Body body, Merge merge) {
  if (count == 0) return true;
  size_t workers = pool == nullptr ? 1 : pool->num_threads();
  if (count < 2 * workers) workers = 1;
  const size_t size = std::clamp<size_t>(count / (4 * workers), 1, 256);
  std::atomic<size_t> cursor{0};
  std::atomic<bool> stopped{false};
  std::mutex merge_mu;
  auto worker = [&] {
    auto state = make_state();
    while (!stopped.load(std::memory_order_relaxed)) {
      const size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      const size_t begin = c * size;
      if (begin >= count) break;
      if (deadline.Expired() ||
          !body(c, begin, std::min(count, begin + size), &state)) {
        stopped.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    merge(&state);
  };
  if (workers == 1) {
    worker();
  } else {
    for (size_t w = 0; w < workers; ++w) pool->Submit([&worker] { worker(); });
    pool->Wait();
  }
  return !stopped.load();
}

}  // namespace dkc

#endif  // DKC_UTIL_THREAD_POOL_H_
