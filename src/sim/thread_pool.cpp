#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace fcr {

/// Control block for one for_each() call, shared by the caller and the
/// queued pump closures. The caller returns once every index has been
/// claimed and every pump that started has finished; a pump that starts
/// later finds no index left and never touches the fn pointer, so fn only
/// has to outlive the call.
struct ThreadPool::Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};

  Mutex m;
  CondVar done_cv;
  std::exception_ptr error FCR_GUARDED_BY(m);
  std::size_t failed_index FCR_GUARDED_BY(m) = kNoIndex;
  /// Pool worker index that hit the first failure, or kNoIndex for the
  /// caller's participating pump — rendered as "pool#K" / "caller" in the
  /// rethrown error's worker provenance.
  std::size_t failed_worker FCR_GUARDED_BY(m) = kNoIndex;
  /// Helper pumps that have started and not yet finished. Queued pumps
  /// are not counted: the caller never waits for a pump that no worker
  /// has picked up.
  std::size_t running FCR_GUARDED_BY(m) = 0;
};

namespace {

/// Pool worker index of the current thread (kNoIndex on non-pool threads,
/// e.g. a for_each caller participating in its own batch). Set once per
/// worker thread in worker_loop; read when a pump records a failure.
thread_local std::size_t tls_pool_worker = kNoIndex;

std::string pump_worker_label(std::size_t worker) {
  return worker == kNoIndex ? std::string("caller")
                            : "pool#" + std::to_string(worker);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const MutexLock lock(m_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_pool_worker = self;
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(m_);
      while (!stop_ && tasks_.empty()) m_.wait(cv_);
      // On stop, drain whatever is still queued so no for_each() caller
      // is left waiting on a pump that never ran.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::run_pump(Batch& batch) {
  for (;;) {
    // Abort is checked BEFORE claiming: once a task failed, no further
    // index starts executing (the old per-call runner claimed first).
    if (batch.abort.load()) return;
    const std::size_t i = batch.next.fetch_add(1);
    if (i >= batch.count) return;
    try {
      FCR_FAILPOINT("pool/claim");
      (*batch.fn)(i);
    } catch (...) {
      const MutexLock lock(batch.m);
      if (!batch.error) {
        batch.error = std::current_exception();
        batch.failed_index = i;
        batch.failed_worker = tls_pool_worker;
      }
      batch.abort.store(true);
    }
  }
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& fn,
                          std::size_t max_parallelism) {
  FCR_ENSURE_ARG(fn != nullptr, "for_each needs a callable");
  if (count == 0) return;

  const auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->fn = &fn;

  // Helpers beyond the caller: capped by the pool size, the caller's
  // parallelism budget, and the work available (count indices can keep at
  // most count threads busy, one of which is the caller).
  std::size_t helpers = std::min(workers_.size(), count - 1);
  if (max_parallelism != 0) {
    helpers = std::min(helpers, max_parallelism - 1);
  }
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([batch] {
      {
        // Counted before claiming: a pump that claims an index is one the
        // caller waits for.
        const MutexLock lock(batch->m);
        ++batch->running;
      }
      run_pump(*batch);
      const MutexLock lock(batch->m);
      if (--batch->running == 0) batch->done_cv.notify_all();
    });
  }

  // Caller participates: progress is guaranteed even if every worker is
  // busy pumping other batches, or is itself blocked in a nested
  // for_each on this pool. The caller's pump returns only once every
  // index is claimed (or the batch aborted), so what is left to wait for
  // is the pumps already running; pumps still queued find nothing to do.
  run_pump(*batch);

  const MutexLock lock(batch->m);
  while (batch->running != 0) batch->m.wait(batch->done_cv);
  if (batch->error) {
    // Rethrow as a structured fcr::Error carrying WHICH task failed —
    // callers (the trial runner, the campaign) map the task index back to
    // a trial without parsing the message.
    const std::string worker = pump_worker_label(batch->failed_worker);
    try {
      std::rethrow_exception(batch->error);
    } catch (const Error& e) {
      throw e.with_task(batch->failed_index).with_worker(worker);
    } catch (const std::exception& e) {
      TrialProvenance prov;
      prov.task = batch->failed_index;
      prov.worker = worker;
      throw Error(ErrorCategory::kEngine, std::string("task failed: ") + e.what(),
                  std::move(prov));
    } catch (...) {
      TrialProvenance prov;
      prov.task = batch->failed_index;
      prov.worker = worker;
      throw Error(ErrorCategory::kEngine, "task failed: non-standard exception",
                  std::move(prov));
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fcr
