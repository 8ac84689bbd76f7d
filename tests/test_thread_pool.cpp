// ThreadPool contract tests plus the pool-reuse stress the tsan CI preset
// runs: many small trial sets through the persistent global pool, with
// oversubscription and concurrent callers, all bit-identical to serial.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fading_cr.hpp"
#include "deploy/generators.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "sinr/channel.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace fcr {
namespace {

TrialConfig tiny_config(std::size_t trials, std::uint64_t seed) {
  TrialConfig c;
  c.trials = trials;
  c.seed = seed;
  c.engine.max_rounds = 20000;
  return c;
}

DeploymentFactory uniform_factory(std::size_t n) {
  return [n](Rng& rng) {
    return uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng)
        .normalized();
  };
}

AlgorithmFactory fading_factory() {
  return [](const Deployment&) {
    return std::make_unique<FadingContentionResolution>();
  };
}

TEST(ThreadPool, ForEachVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 20000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    const std::size_t count = 1 + static_cast<std::size_t>(round) % 7;
    pool.for_each(count, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), count * (count + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, FirstExceptionPropagatesAndAbortsNewClaims) {
  ThreadPool pool(4);
  std::atomic<std::size_t> started{0};
  constexpr std::size_t kCount = 100000;
  try {
    pool.for_each(kCount, [&](std::size_t) {
      started.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("task failed");
    });
    FAIL() << "for_each must rethrow the task's exception";
  } catch (const Error& e) {
    // The pool wraps foreign exceptions into fcr::Error with the failed
    // task's index attached.
    EXPECT_EQ(e.category(), ErrorCategory::kEngine);
    EXPECT_NE(std::string(e.what()).find("task failed"), std::string::npos);
    EXPECT_LT(e.provenance().task, kCount);
  }
  // Abort is checked BEFORE an index is claimed, so once the first task
  // throws only the pumps already past the check may still start one task
  // each: far fewer invocations than indices.
  EXPECT_LE(started.load(), pool.worker_count() + 1);
}

TEST(ThreadPool, FailureContextIdentifiesExactTask) {
  ThreadPool pool(4);
  try {
    pool.for_each(64, [](std::size_t i) {
      if (i == 17) throw std::runtime_error("boom at seventeen");
    });
    FAIL() << "for_each must rethrow";
  } catch (const Error& e) {
    EXPECT_EQ(e.provenance().task, 17u);
    EXPECT_NE(std::string(e.what()).find("task 17"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("boom at seventeen"),
              std::string::npos);
  }
}

TEST(ThreadPool, StructuredErrorsPassThroughWithTaskAttached) {
  ThreadPool pool(2);
  try {
    pool.for_each(8, [](std::size_t i) {
      if (i == 3) {
        TrialProvenance prov;
        prov.round = 42;
        throw Error(ErrorCategory::kChannel, "bad gain matrix",
                    std::move(prov));
      }
    });
    FAIL() << "for_each must rethrow";
  } catch (const Error& e) {
    // An already-structured Error keeps its category and payload; the
    // pool only adds the task index.
    EXPECT_EQ(e.category(), ErrorCategory::kChannel);
    EXPECT_EQ(e.provenance().round, 42u);
    EXPECT_EQ(e.provenance().task, 3u);
  }
}

TEST(ThreadPool, MaxParallelismOneIsCallerOnly) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> foreign{false};
  pool.for_each(
      64,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) foreign.store(true);
      },
      /*max_parallelism=*/1);
  EXPECT_FALSE(foreign.load());
}

TEST(ThreadPool, HugeMaxParallelismIsClampedSafely) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.for_each(
      100, [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); },
      /*max_parallelism=*/1000000);
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

TEST(ThreadPool, ZeroCountReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.for_each(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, RejectsNullFunction) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.for_each(4, std::function<void(std::size_t)>{}),
               std::invalid_argument);
}

TEST(ThreadPool, ConcurrentForEachCallsOnOnePoolBothComplete) {
  // Two racing batches on the same pool: caller participation guarantees
  // progress for both even when every worker is pinned by the other batch.
  ThreadPool pool(2);
  std::atomic<std::size_t> a{0}, b{0};
  std::thread other([&] {
    pool.for_each(5000,
                  [&](std::size_t) { a.fetch_add(1, std::memory_order_relaxed); });
  });
  pool.for_each(5000,
                [&](std::size_t) { b.fetch_add(1, std::memory_order_relaxed); });
  other.join();
  EXPECT_EQ(a.load(), 5000u);
  EXPECT_EQ(b.load(), 5000u);
}

TEST(ThreadPool, NestedForEachFromEveryWorkerCompletes) {
  // Both workers and the caller each hold one outer task (the latch keeps
  // all three in before any goes on) and call for_each on the same pool,
  // so no worker is free to pop the inner batches' queued pumps; each
  // nested caller must finish its batch on its own. The nest runs on a
  // detached thread that co-owns the pool, so a deadlock fails this test
  // after the wait instead of hanging the suite.
  struct Nest {
    ThreadPool pool{2};
    std::latch all_outer_started{3};
    std::atomic<std::size_t> inner{0};
  };
  const auto nest = std::make_shared<Nest>();
  std::packaged_task<void()> run([nest] {
    nest->pool.for_each(3, [&](std::size_t) {
      nest->all_outer_started.arrive_and_wait();
      nest->pool.for_each(4, [&](std::size_t) {
        nest->inner.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  std::future<void> done = run.get_future();
  std::thread(std::move(run)).detach();
  ASSERT_EQ(done.wait_for(std::chrono::seconds(20)), std::future_status::ready)
      << "nested for_each did not complete within 20 s";
  done.get();
  EXPECT_EQ(nest->inner.load(), 12u);
}

// ------------------------------------------------- pool-reuse trial stress
//
// The sweep-driver pattern: many SMALL trial sets in sequence through the
// shared global pool, with more threads requested than the machine has.
// Every set must aggregate bit-identically to its serial run. This suite
// (name matched by the CI tsan regex) is the data-race canary for the
// pool + batch-resolver stack.

TEST(ThreadPoolStress, ManySmallTrialSetsBitIdenticalToSerial) {
  const std::size_t oversub =
      2 * std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::uint64_t set = 0; set < 8; ++set) {
    const TrialConfig config = tiny_config(5 + set % 3, 900 + set);
    const auto serial =
        run_trials(uniform_factory(32), sinr_channel_factory(3.0, 1.5, 1e-9),
                   fading_factory(), config);
    const auto parallel = run_trials_parallel(
        uniform_factory(32), sinr_channel_factory(3.0, 1.5, 1e-9),
        fading_factory(), config, oversub);
    ASSERT_EQ(parallel.trials, serial.trials) << "set " << set;
    ASSERT_EQ(parallel.solved, serial.solved) << "set " << set;
    ASSERT_EQ(parallel.rounds, serial.rounds) << "set " << set;
  }
}

TEST(ThreadPoolStress, ConcurrentTrialSetsDoNotInterfere) {
  // Two sweep drivers racing on the global pool, each its own config; both
  // must match their serial references.
  const TrialConfig ca = tiny_config(6, 1234);
  const TrialConfig cb = tiny_config(4, 5678);
  const auto serial_a =
      run_trials(uniform_factory(24), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), ca);
  const auto serial_b =
      run_trials(uniform_factory(40), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), cb);

  TrialSetResult pa, pb;
  std::thread other([&] {
    pa = run_trials_parallel(uniform_factory(24),
                             sinr_channel_factory(3.0, 1.5, 1e-9),
                             fading_factory(), ca, 4);
  });
  pb = run_trials_parallel(uniform_factory(40),
                           sinr_channel_factory(3.0, 1.5, 1e-9),
                           fading_factory(), cb, 4);
  other.join();

  EXPECT_EQ(pa.solved, serial_a.solved);
  EXPECT_EQ(pa.rounds, serial_a.rounds);
  EXPECT_EQ(pb.solved, serial_b.solved);
  EXPECT_EQ(pb.rounds, serial_b.rounds);
}

TEST(ThreadPoolStress, PoolConstructionAndTeardownLoop) {
  // Local pools built and torn down repeatedly: the drain-on-shutdown path
  // must not lose tasks or hang.
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(1 + static_cast<std::size_t>(i) % 4);
    std::atomic<std::size_t> sum{0};
    pool.for_each(32, [&](std::size_t j) {
      sum.fetch_add(j, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 32u * 31u / 2u) << "iteration " << i;
  }
}

}  // namespace
}  // namespace fcr
