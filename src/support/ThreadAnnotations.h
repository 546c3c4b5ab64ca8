//===- support/ThreadAnnotations.h - Clang thread-safety capabilities ----===//
//
// Part of the Seer reproduction (CGO 2024).
//
// Capability annotations for Clang's -Wthread-safety static analysis, plus
// annotated mutex/lock wrappers. Under any compiler that lacks the
// attributes (GCC in the default container) every macro expands to nothing
// and seer::Mutex / seer::MutexLock / seer::CondVar are zero-overhead
// wrappers over their <mutex>/<condition_variable> counterparts, so the
// annotated tree builds and behaves identically everywhere. Under Clang
// with -DSEER_THREAD_SAFETY=ON the annotations are promoted to errors and
// every lock-discipline comment in the codebase ("caller holds S.Mutex",
// "must be called WITHOUT E->Mutex held") becomes a compile-time check.
//
// Conventions used across the tree:
//  - Data members protected by a mutex carry SEER_GUARDED_BY(Mutex).
//  - Private helpers whose contract is "caller already holds the lock"
//    carry SEER_REQUIRES(Mutex) instead of re-documenting it in prose.
//  - Public entry points that must NOT be called with a given lock held
//    (lock-order edges, e.g. FingerprintCache's entry -> shard order)
//    carry SEER_EXCLUDES(thatMutex).
//  - Every SEER_NO_THREAD_SAFETY_ANALYSIS escape hatch carries a one-line
//    justification comment; tools/seer_lint.py enforces this.
//
//===----------------------------------------------------------------------===//

#ifndef SEER_SUPPORT_THREADANNOTATIONS_H
#define SEER_SUPPORT_THREADANNOTATIONS_H

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SEER_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SEER_THREAD_ANNOTATION
#define SEER_THREAD_ANNOTATION(x) // expands to nothing outside Clang
#endif

// NOLINTBEGIN(bugprone-macro-parentheses): attribute argument lists take
// capability expressions verbatim; extra parentheses would not parse.

/// Marks a class as a capability (lockable) type.
#define SEER_CAPABILITY(name) SEER_THREAD_ANNOTATION(capability(name))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SEER_SCOPED_CAPABILITY SEER_THREAD_ANNOTATION(scoped_lockable)

/// Data member is protected by the given capability.
#define SEER_GUARDED_BY(x) SEER_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define SEER_PT_GUARDED_BY(x) SEER_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and does not
/// release it): the static spelling of "caller holds the lock".
#define SEER_REQUIRES(...)                                                     \
  SEER_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define SEER_ACQUIRE(...)                                                      \
  SEER_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define SEER_RELEASE(...)                                                      \
  SEER_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts acquisition; holds the capability iff the return
/// value equals the first argument.
#define SEER_TRY_ACQUIRE(...)                                                  \
  SEER_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must be called with the capability NOT held (negative
/// capability). Encodes lock-order edges at API boundaries.
#define SEER_EXCLUDES(...) SEER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define SEER_RETURN_CAPABILITY(x) SEER_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables analysis for one function. Every use must carry
/// a one-line justification comment (enforced by tools/seer_lint.py).
#define SEER_NO_THREAD_SAFETY_ANALYSIS                                         \
  SEER_THREAD_ANNOTATION(no_thread_safety_analysis)

// NOLINTEND(bugprone-macro-parentheses)

namespace seer {

class CondVar;

/// std::mutex with capability annotations. Use with MutexLock for RAII
/// acquisition; lock()/unlock()/try_lock() remain available for the few
/// call sites with non-scoped discipline (e.g. try-lock-only eviction).
class SEER_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() SEER_ACQUIRE() { Native.lock(); }
  void unlock() SEER_RELEASE() { Native.unlock(); }
  bool try_lock() SEER_TRY_ACQUIRE(true) { return Native.try_lock(); }

private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex Native;
};

/// RAII scoped lock over seer::Mutex (std::unique_lock semantics: supports
/// early unlock()/relock, required by FaultInjector::checkSlow's
/// unlock-before-sleep path and condition-variable waits).
class SEER_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &M) SEER_ACQUIRE(M) : Lock(M.Native) {}
  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;
  ~MutexLock() SEER_RELEASE() {}

  /// Release before end of scope (sleeping, calling out).
  void unlock() SEER_RELEASE() { Lock.unlock(); }
  /// Re-acquire after an early unlock().
  void lock() SEER_ACQUIRE() { Lock.lock(); }

private:
  friend class CondVar;
  std::unique_lock<std::mutex> Lock;
};

/// Condition variable paired with seer::Mutex. Only the non-predicate
/// wait() form is provided: predicate lambdas are analyzed as separate
/// functions by -Wthread-safety and would spuriously warn on guarded
/// reads, so call sites spell the standard while-loop instead — which
/// keeps the guarded condition inside the function whose lock state the
/// analysis tracks.
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  /// Atomically releases Lock and blocks; Lock is held again on return.
  /// Capability-neutral: held before, held after.
  void wait(MutexLock &Lock) { Native.wait(Lock.Lock); }

  /// wait() with a deadline: false once \p Deadline has passed.
  bool waitUntil(MutexLock &Lock,
                 std::chrono::steady_clock::time_point Deadline) {
    return Native.wait_until(Lock.Lock, Deadline) ==
           std::cv_status::no_timeout;
  }

  void notify_one() { Native.notify_one(); }
  void notify_all() { Native.notify_all(); }

private:
  std::condition_variable Native;
};

} // namespace seer

#endif // SEER_SUPPORT_THREADANNOTATIONS_H
