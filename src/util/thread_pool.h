// A small fixed-size thread pool with a parallel-for helper.
//
// The paper parallelizes two phases (Algorithm 3 HeapInit and Algorithm 5
// candidate-index construction) with "for each ... in parallel". We use a
// chunked dynamic-scheduling ParallelFor, which is all those loops need; no
// futures or task graphs.

#ifndef DKC_UTIL_THREAD_POOL_H_
#define DKC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

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

  /// Run `body(i)` for i in [0, count) across the pool, dynamically chunked.
  /// Blocks until complete. `body` must be safe to call concurrently for
  /// distinct indices. With one thread (or tiny ranges) runs inline.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  /// Submit `fn(worker_index)` once per pool thread and block until every
  /// instance returns. The building block for passes that keep worker-
  /// private scratch (a kernel + arena) and pull work items off a shared
  /// atomic cursor — the whole-solution candidate-index build uses it so
  /// the submit/cursor boilerplate lives in one place. With an empty pool runs
  /// fn(0) inline.
  void RunPerWorker(const std::function<void(size_t)>& fn);

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

}  // namespace dkc

#endif  // DKC_UTIL_THREAD_POOL_H_
