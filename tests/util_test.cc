#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dkc {
namespace {

// ---------------------------------------------------------------- Timer
TEST(TimerTest, ElapsedIsMonotonic) {
  Timer t;
  const double a = t.ElapsedSeconds();
  const double b = t.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(TimerTest, UnitsAreConsistent) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double seconds = t.ElapsedSeconds();
  const double millis = t.ElapsedMillis();
  EXPECT_NEAR(millis, seconds * 1e3, seconds * 1e3 * 0.5 + 1.0);
}

TEST(TimerTest, RestartResets) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double before = t.ElapsedNanos();
  t.Restart();
  EXPECT_LT(t.ElapsedNanos(), before + 1000000000LL);
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  EXPECT_FALSE(Deadline::Unlimited().Expired());
  EXPECT_TRUE(Deadline::Unlimited().unlimited());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).Expired());
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  EXPECT_FALSE(Deadline::AfterMillis(60000).Expired());
}

// --------------------------------------------------------------- Memory
TEST(MemoryTest, RssReadersReturnPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
}

TEST(MemoryBudgetTest, UnlimitedNeverFails) {
  MemoryBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.Charge(int64_t{1} << 40));
}

TEST(MemoryBudgetTest, ChargeUpToLimitSucceeds) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Charge(400));
  EXPECT_TRUE(budget.Charge(600));
  EXPECT_EQ(budget.used_bytes(), 1000);
}

TEST(MemoryBudgetTest, ExceedingLimitFails) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Charge(999));
  EXPECT_FALSE(budget.Charge(2));
}

TEST(MemoryBudgetTest, ReleaseMakesRoom) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Charge(900));
  budget.Release(500);
  EXPECT_TRUE(budget.Charge(500));
}

TEST(MemoryBudgetTest, PeakTracksHighWater) {
  MemoryBudget budget(0);
  budget.Charge(700);
  budget.Release(600);
  budget.Charge(100);
  EXPECT_EQ(budget.peak_bytes(), 700);
  EXPECT_EQ(budget.used_bytes(), 200);
}

// ------------------------------------------------------------------ Rng
TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.05);  // law of large numbers, loose
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng forked = a.Fork();
  EXPECT_NE(a.Next(), forked.Next());
}

// ------------------------------------------------------------ ThreadPool
TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, SequentialSubmitBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&] { counter.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, SubmitWaitInterleaving) {
  // Wait() must cover tasks submitted *by running tasks*: the child is
  // enqueued while the parent is still in flight, so in_flight_ never hits
  // zero between them.
  ThreadPool pool(3);
  std::atomic<int> parents{0};
  std::atomic<int> children{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      parents.fetch_add(1);
      pool.Submit([&] { children.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(parents.load(), 50);
  EXPECT_EQ(children.load(), 50);
  // Wait on the now-idle pool must return immediately, and the pool must
  // still accept work afterwards.
  pool.Wait();
  std::atomic<int> more{0};
  pool.Submit([&] { more.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(more.load(), 1);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedWork) {
  // Destroying the pool with work still queued must run it, not drop it:
  // the worker loop only exits on shutdown once the queue is empty.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No Wait(): the destructor races the queue.
  }
  EXPECT_EQ(counter.load(), 64);
}

// -------------------------------------------------------- ParallelChunks
// One chunk as the body saw it.
struct ChunkSeen {
  size_t index;
  size_t begin;
  size_t end;
};

// Runs ParallelChunks over [0, count) with per-worker chunk logs and
// returns every chunk seen, sorted by chunk index.
std::vector<ChunkSeen> RunChunks(ThreadPool* pool, size_t count,
                                 std::vector<std::atomic<int>>* hits) {
  std::mutex mu;
  std::vector<ChunkSeen> seen;
  const bool completed = ParallelChunks(
      pool, count, Deadline::Unlimited(),
      [] { return std::vector<ChunkSeen>(); },
      [&](size_t c, size_t begin, size_t end, std::vector<ChunkSeen>* log) {
        for (size_t i = begin; i < end; ++i) (*hits)[i].fetch_add(1);
        log->push_back({c, begin, end});
        return true;
      },
      [&](std::vector<ChunkSeen>* log) {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(seen.end(), log->begin(), log->end());
      });
  EXPECT_TRUE(completed);
  std::sort(seen.begin(), seen.end(),
            [](const ChunkSeen& a, const ChunkSeen& b) {
              return a.index < b.index;
            });
  return seen;
}

TEST(ParallelChunksTest, VisitsEveryIndexOnceInContiguousChunks) {
  // The driver goes parallel at count >= 2 * workers and sizes chunks by
  // count / (4 * workers), capped at 256; sweep counts around those
  // boundaries (and the chunk-size-1 regime) so off-by-one in the cursor
  // arithmetic would double-visit or drop an index. Chunk c must be the
  // c-th contiguous slice, and chunk indices must cover 0..num_chunks-1
  // once each.
  ThreadPool pool1(1), pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool4};
  const size_t counts[] = {1, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33,
                           259, 4096, 4097, 8 * 256 * 4 + 3};
  for (ThreadPool* pool : pools) {
    for (size_t count : counts) {
      SCOPED_TRACE("threads=" +
                   std::to_string(pool == nullptr ? 0 : pool->num_threads()) +
                   " count=" + std::to_string(count));
      std::vector<std::atomic<int>> hits(count);
      const std::vector<ChunkSeen> seen = RunChunks(pool, count, &hits);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
      ASSERT_FALSE(seen.empty());
      const size_t size = seen[0].end - seen[0].begin;
      EXPECT_GE(size, 1u);
      EXPECT_LE(size, 256u);
      for (size_t c = 0; c < seen.size(); ++c) {
        EXPECT_EQ(seen[c].index, c);
        EXPECT_EQ(seen[c].begin, c * size);
        EXPECT_EQ(seen[c].end, std::min(count, (c + 1) * size));
      }
      EXPECT_EQ(seen.back().end, count);
    }
  }
}

TEST(ParallelChunksTest, EmptyRangeCallsNoBody) {
  ThreadPool pool(4);
  ThreadPool* pools[] = {nullptr, &pool};
  for (ThreadPool* p : pools) {
    const bool completed = ParallelChunks(
        p, 0, Deadline::Unlimited(), [] { return 0; },
        [](size_t, size_t, size_t, int*) {
          ADD_FAILURE() << "must not be called";
          return true;
        },
        [](int*) {});
    EXPECT_TRUE(completed);
  }
}

TEST(ParallelChunksTest, MergeRunsOncePerBuiltState) {
  ThreadPool pool1(1), pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool4};
  for (ThreadPool* pool : pools) {
    for (size_t count : {1u, 100u, 10000u}) {
      std::atomic<int> built{0};
      std::atomic<int> merged{0};
      std::atomic<size_t> sum{0};
      struct State {
        int id;
        size_t local;
        bool merged;
      };
      ParallelChunks(
          pool, count, Deadline::Unlimited(),
          [&] { return State{built.fetch_add(1), 0, false}; },
          [](size_t, size_t begin, size_t end, State* s) {
            s->local += end - begin;
            return true;
          },
          [&](State* s) {
            EXPECT_FALSE(s->merged);
            s->merged = true;
            merged.fetch_add(1);
            sum.fetch_add(s->local);
          });
      EXPECT_GE(built.load(), 1);
      EXPECT_LE(built.load(),
                static_cast<int>(pool == nullptr ? 1 : pool->num_threads()));
      EXPECT_EQ(merged.load(), built.load());
      EXPECT_EQ(sum.load(), count);
    }
  }
}

TEST(ParallelChunksTest, ExpiredDeadlineReturnsFalse) {
  ThreadPool pool(4);
  ThreadPool* pools[] = {nullptr, &pool};
  for (ThreadPool* p : pools) {
    std::atomic<int> bodies{0};
    const bool completed = ParallelChunks(
        p, 10000, Deadline::AfterMillis(0), [] { return 0; },
        [&](size_t, size_t, size_t, int*) {
          bodies.fetch_add(1);
          return true;
        },
        [](int*) {});
    EXPECT_FALSE(completed);
    EXPECT_EQ(bodies.load(), 0);  // checked before every chunk
  }
}

TEST(ParallelChunksTest, BodyReturningFalseStopsEveryWorker) {
  ThreadPool pool1(1), pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool4};
  for (ThreadPool* p : pools) {
    const int workers = p == nullptr ? 1 : static_cast<int>(p->num_threads());
    std::atomic<int> bodies{0};
    std::atomic<bool> stopping{false};
    std::atomic<int> late{0};
    const bool completed = ParallelChunks(
        p, 100000, Deadline::Unlimited(), [] { return 0; },
        [&](size_t c, size_t, size_t, int*) {
          if (stopping.load()) late.fetch_add(1);
          bodies.fetch_add(1);
          if (c == 3) {
            stopping.store(true);
            return false;
          }
          return true;
        },
        [](int*) {});
    EXPECT_FALSE(completed);
    // Once a body stops, no worker claims another chunk: only chunks that
    // other workers had already claimed may still run.
    EXPECT_LE(late.load(), workers - 1);
    if (workers == 1) {
      EXPECT_EQ(bodies.load(), 4);
    }
  }
}

// ---------------------------------------------------------- FirstFailure
TEST(FirstFailureTest, ReportsTheLowestFailingIndexAndSumsTallies) {
  // Indices `first` and `first + 600` (a later chunk) fail, each with its
  // own message. The check at `first` stalls, so on a pool the later
  // failure is found, and its worker merged, first; every pool must
  // still report `first`'s message, as the serial loop does. The tally of
  // a passing run must count every index once.
  ThreadPool pool1(1), pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool4};
  std::vector<std::string> messages(20000);
  for (size_t i = 0; i < messages.size(); ++i) {
    messages[i] = "index " + std::to_string(i);
  }
  for (ThreadPool* pool : pools) {
    for (size_t first : {size_t{0}, size_t{7}, size_t{300}, size_t{19999}}) {
      SCOPED_TRACE(std::to_string(first));
      const auto make_check = [&] {
        return [&](size_t i, uint64_t*) -> const char* {
          if (i == first) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          return i == first || i == first + 600 ? messages[i].c_str()
                                                : nullptr;
        };
      };
      EXPECT_EQ(FirstFailure(pool, messages.size(), make_check),
                messages[first].c_str());
    }
    uint64_t total = 0;
    EXPECT_EQ(FirstFailure(
                  pool, messages.size(),
                  [] {
                    return [](size_t i, uint64_t* tally) -> const char* {
                      *tally += i;
                      return nullptr;
                    };
                  },
                  &total),
              nullptr);
    EXPECT_EQ(total, uint64_t{20000} * 19999 / 2);
  }
}

// ---------------------------------------------------------------- Flags
TEST(FlagsTest, ParsesKeyValue) {
  const char* argv[] = {"prog", "--k=5", "--name=orkut"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 3), 5);
  EXPECT_EQ(flags.GetString("name", ""), "orkut");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 3), 3);
  EXPECT_EQ(flags.GetDouble("beta", 0.1), 0.1);
  EXPECT_FALSE(flags.Has("k"));
}

TEST(FlagsTest, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagsTest, ExplicitFalse) {
  const char* argv[] = {"prog", "--verbose=false", "--debug=0"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("verbose", true));
  EXPECT_FALSE(flags.GetBool("debug", true));
}

TEST(FlagsTest, PositionalArgumentsPreserved) {
  const char* argv[] = {"prog", "input.txt", "--k=4", "more"};
  Flags flags(4, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "more");
}

TEST(FlagsTest, DoubleParsing) {
  const char* argv[] = {"prog", "--beta=0.25"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0), 0.25);
}

TEST(FlagsTest, EmptyArgvIsHarmless) {
  Flags flags(0, nullptr);
  EXPECT_EQ(flags.program_name(), "");
  EXPECT_TRUE(flags.positional().empty());
  EXPECT_FALSE(flags.Has("anything"));
  EXPECT_EQ(flags.GetInt("k", 3), 3);
}

TEST(FlagsTest, DuplicateFlagLastOneWins) {
  const char* argv[] = {"prog", "--k=3", "--k=7"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 0), 7);
}

TEST(FlagsTest, EmptyValueIsPresentButEmpty) {
  const char* argv[] = {"prog", "--name="};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_TRUE(flags.Has("name"));
  EXPECT_EQ(flags.GetString("name", "default"), "");
  // Numeric lookups on an empty value fall back to strtoll/strtod of "".
  EXPECT_EQ(flags.GetInt("name", 9), 0);
}

TEST(FlagsTest, UnknownFlagFallsBackToDefaults) {
  const char* argv[] = {"prog", "--known=1"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_FALSE(flags.Has("unknown"));
  EXPECT_EQ(flags.GetString("unknown", "d"), "d");
  EXPECT_TRUE(flags.GetBool("unknown", true));
  EXPECT_FALSE(flags.GetBool("unknown", false));
}

TEST(FlagsTest, NonNumericValueParsesAsZero) {
  const char* argv[] = {"prog", "--k=abc"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 5), 0);
  EXPECT_EQ(flags.GetDouble("k", 5.0), 0.0);
}

}  // namespace
}  // namespace dkc
