// Portable Clang thread-safety annotation macros and the annotated
// synchronization wrappers fcr code must use instead of bare std:: types
// (enforced by fcrlint's lock-discipline rule).
//
// Clang's -Wthread-safety analysis proves, at compile time, that every
// access to a GUARDED_BY member happens with its mutex held and that every
// acquire has a matching release. The std primitives carry no annotations,
// so the analysis cannot see them; fcr::Mutex / fcr::MutexLock are thin
// zero-overhead wrappers that attach the attributes. On compilers without
// the attribute (GCC) the macros expand to nothing and the wrappers behave
// exactly like std::mutex / std::lock_guard.
//
// Condition variables: fcr::CondVar is std::condition_variable_any, which
// waits directly on fcr::Mutex (any BasicLockable). Because the analysis
// cannot model wait()'s unlock/relock, waiting goes through
// Mutex::wait(cv), which carries the REQUIRES(this) contract the analysis
// can check at call sites:
//
//   fcr::MutexLock lock(m_);
//   while (!ready_) m_.wait(cv_);   // ready_ is FCR_GUARDED_BY(m_)
//
// Macro set (the names mirror the Clang documentation with an FCR_ prefix):
//   FCR_CAPABILITY(name)        type declares a capability (a lock)
//   FCR_SCOPED_CAPABILITY       RAII type that acquires/releases one
//   FCR_GUARDED_BY(m)           data member needs m held to touch
//   FCR_PT_GUARDED_BY(m)        pointee needs m held to touch
//   FCR_REQUIRES(m...)          function needs m held on entry
//   FCR_ACQUIRE(m...)           function acquires m (not held on entry)
//   FCR_RELEASE(m...)           function releases m (held on entry)
//   FCR_TRY_ACQUIRE(ok, m...)   function acquires m when it returns ok
//   FCR_EXCLUDES(m...)          function must NOT be called with m held
//   FCR_ACQUIRED_BEFORE(m...)   lock-order edge between mutex members
//   FCR_ACQUIRED_AFTER(m...)    lock-order edge between mutex members
//   FCR_ASSERT_CAPABILITY(m)    runtime assertion that m is held
//   FCR_RETURN_CAPABILITY(m)    function returns a reference to m
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FCR_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef FCR_THREAD_ANNOTATION
#define FCR_THREAD_ANNOTATION(x)  // not Clang: annotations compile away
#endif

#define FCR_CAPABILITY(name) FCR_THREAD_ANNOTATION(capability(name))
#define FCR_SCOPED_CAPABILITY FCR_THREAD_ANNOTATION(scoped_lockable)
#define FCR_GUARDED_BY(m) FCR_THREAD_ANNOTATION(guarded_by(m))
#define FCR_PT_GUARDED_BY(m) FCR_THREAD_ANNOTATION(pt_guarded_by(m))
#define FCR_REQUIRES(...) \
  FCR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define FCR_ACQUIRE(...) \
  FCR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define FCR_RELEASE(...) \
  FCR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define FCR_TRY_ACQUIRE(...) \
  FCR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define FCR_EXCLUDES(...) FCR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define FCR_ACQUIRED_BEFORE(...) \
  FCR_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define FCR_ACQUIRED_AFTER(...) \
  FCR_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define FCR_ASSERT_CAPABILITY(m) \
  FCR_THREAD_ANNOTATION(assert_capability(m))
#define FCR_RETURN_CAPABILITY(m) FCR_THREAD_ANNOTATION(lock_returned(m))

namespace fcr {

/// Annotated std::condition_variable_any: waits on fcr::Mutex directly.
/// Always wait through Mutex::wait(cv) so the held-lock contract is checked.
using CondVar = std::condition_variable_any;

/// std::mutex with the capability attribute attached. Same size, same
/// codegen; BasicLockable, so CondVar and std::unique_lock accept it.
class FCR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FCR_ACQUIRE() { m_.lock(); }
  void unlock() FCR_RELEASE() { m_.unlock(); }
  bool try_lock() FCR_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Blocks on cv with this mutex held; the mutex is re-held on return.
  /// The unlock/relock inside the std wait is invisible to the analysis,
  /// which is exactly why the REQUIRES contract lives here.
  void wait(CondVar& cv) FCR_REQUIRES(this) { cv.wait(*this); }

 private:
  // Everything else in src/ goes through fcr::Mutex; this member IS the
  // wrapper's implementation, so the one bare primitive lives here.
  // FCRLINT_ALLOW(lock-discipline): the annotated wrapper around std::mutex.
  std::mutex m_;
};

/// RAII lock for fcr::Mutex — std::lock_guard with the scoped-capability
/// attribute so the analysis tracks the critical section's extent.
class FCR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) FCR_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() FCR_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

}  // namespace fcr
