// Persistent thread pool: the scheduling core of the trial engine. Created
// once (see global()) and reused by run_trials_parallel, the benches, and
// the tests, replacing the old spawn-and-join of a fresh std::thread batch
// on every call.
//
// Design, sized for this codebase's workload (few, coarse tasks):
//   * one FIFO queue behind one mutex; a submit pushes a task and wakes one
//     idle worker, which pops the front task and runs it without the lock;
//   * for_each() is the only consumption API: it queues shared "pump"
//     tasks that claim indices from an atomic counter, and the CALLING
//     thread also pumps. The pumps of a batch are interchangeable, so one
//     queue loses nothing to per-worker queues. Caller participation
//     guarantees progress even when every worker is busy with other
//     batches, and the caller waits only for pumps that have started, so
//     neither concurrent for_each() calls (racing sweep drivers) nor
//     nested ones (a task calling for_each on its own pool) can deadlock;
//   * pumps re-check the batch's abort flag BEFORE claiming an index, so
//     after a task throws, no further index starts executing; the first
//     exception is rethrown in the caller once the batch drains.
//
// Determinism: the pool never influences WHAT is computed, only WHEN —
// for_each(count, fn) invokes fn exactly once per index in [0, count) (or
// aborts after a failure), and callers index into pre-sized result slots.
//
// Locking is annotated for Clang's -Wthread-safety analysis (fcr::Mutex /
// fcr::MutexLock from util/thread_annotations.hpp): every guarded member
// names its mutex, so a clang build proves each access holds the right
// lock. GCC compiles the same code with the attributes expanded away.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace fcr {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains queued tasks and joins the workers. Must not run while a
  /// for_each() on this pool is still in flight on another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Invokes fn(0) .. fn(count-1), distributed over the pool, and blocks
  /// until all of them finished. The calling thread executes tasks too.
  /// `max_parallelism` caps the number of threads working on this batch
  /// INCLUDING the caller (0 = no cap). If a task throws, no new index is
  /// claimed afterwards and the first exception is rethrown here once the
  /// in-flight tasks drain. Safe to call from several threads at once,
  /// and from inside a task of this pool.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn,
                std::size_t max_parallelism = 0);

  /// The process-wide shared pool (hardware-concurrency workers, created
  /// on first use). This is the instance the trial runner and benches use.
  static ThreadPool& global();

 private:
  struct Batch;

  void worker_loop(std::size_t self);
  void submit(std::function<void()> task);
  static void run_pump(Batch& batch);

  // Pending tasks, oldest first. Workers sleep on cv_ until a task arrives
  // or stop_ is set.
  Mutex m_;
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ FCR_GUARDED_BY(m_);
  bool stop_ FCR_GUARDED_BY(m_) = false;

  // Declared after the queue, which every worker uses.
  std::vector<std::thread> workers_;
};

}  // namespace fcr
