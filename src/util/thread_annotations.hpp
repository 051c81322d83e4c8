#ifndef FRAZ_UTIL_THREAD_ANNOTATIONS_HPP
#define FRAZ_UTIL_THREAD_ANNOTATIONS_HPP

/// \file thread_annotations.hpp
/// Compile-time concurrency contracts: Clang thread-safety annotation macros
/// plus the annotated `fraz::Mutex` / `fraz::LockGuard` / `fraz::UniqueLock`
/// / `fraz::CondVar` wrappers every lock-bearing subsystem uses.
///
/// FRaZ's core guarantees — bit-identical tuned bounds and byte-identical
/// packs at any worker count — rest on lock discipline spread across seven
/// concurrent subsystems (BoundStore, ChunkCache, ReaderPool, ThreadPool,
/// the telemetry registry, the archive assembler, serve sessions).  TSan
/// samples executions; these annotations are exhaustive:
/// `clang++ -Wthread-safety -Werror` (the `tools/lint.sh` / CI lint gate)
/// turns every future guarded-state access outside its lock into a compile
/// error.  Under GCC (or any non-Clang compiler) every macro expands to
/// nothing and the wrappers are zero-cost veneers over the std primitives,
/// so the Tier-1 build is unaffected.
///
/// House rules (see docs/API.md "Concurrency contracts"):
///  - every mutex-guarded member carries FRAZ_GUARDED_BY(its mutex);
///  - every `*_locked()` helper carries FRAZ_REQUIRES(its mutex);
///  - condition waits are explicit `while (!pred) cv.wait(lock)` loops, not
///    predicate-lambda waits — the analysis cannot see into a lambda, and
///    the loop form keeps every guarded read visibly under the lock;
///  - new shared state MUST be annotated before it lands (the lint gate
///    makes forgetting the lock a build break, but only for annotated
///    members — an unannotated member is invisible to the analysis).

#include <condition_variable>
#include <mutex>

// Raw attribute spelling, compiled out everywhere except Clang.  SWIG and
// clangd both define __clang__, which is exactly what we want: the IDE shows
// lock-discipline errors inline even when the build compiler is GCC.
#if defined(__clang__)
#define FRAZ_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FRAZ_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Declares a type to be a lockable capability ("mutex" by convention).
#define FRAZ_CAPABILITY(x) FRAZ_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose lifetime holds a capability.
#define FRAZ_SCOPED_CAPABILITY FRAZ_THREAD_ANNOTATION(scoped_lockable)

/// Member may only be touched while holding the named capability.
#define FRAZ_GUARDED_BY(x) FRAZ_THREAD_ANNOTATION(guarded_by(x))

/// Pointee (not the pointer) is guarded by the named capability.
#define FRAZ_PT_GUARDED_BY(x) FRAZ_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held on entry (a `*_locked()` helper).
#define FRAZ_REQUIRES(...) \
  FRAZ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function must NOT be entered with the capability held (deadlock guard).
#define FRAZ_EXCLUDES(...) FRAZ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (held on return).
#define FRAZ_ACQUIRE(...) \
  FRAZ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, released on return).
#define FRAZ_RELEASE(...) \
  FRAZ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function conditionally acquires: holds the capability iff it returned
/// \p result (e.g. FRAZ_TRY_ACQUIRE(true) on try_lock).
#define FRAZ_TRY_ACQUIRE(...) \
  FRAZ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function returns a reference to the named capability (accessor pattern).
#define FRAZ_RETURN_CAPABILITY(x) FRAZ_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model (document why at the
/// use site; every use needs a rationale comment).
#define FRAZ_NO_THREAD_SAFETY_ANALYSIS \
  FRAZ_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Lock-acquisition ordering, for deadlock detection across mutexes.
#define FRAZ_ACQUIRED_BEFORE(...) \
  FRAZ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define FRAZ_ACQUIRED_AFTER(...) \
  FRAZ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

namespace fraz {

/// std::mutex with the capability attribute, so members can be declared
/// FRAZ_GUARDED_BY(mutex_) and the analysis tracks acquire/release through
/// the annotated entry points below.  Zero-cost: the wrapper adds no state
/// and every method is a forwarding inline.
class FRAZ_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FRAZ_ACQUIRE() { mutex_.lock(); }
  void unlock() FRAZ_RELEASE() { mutex_.unlock(); }
  bool try_lock() FRAZ_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  /// The wrapped std::mutex, for interop the analysis cannot follow (the
  /// scoped wrappers below use it; annotated code should not need it).
  std::mutex& native() noexcept { return mutex_; }

private:
  std::mutex mutex_;
};

/// Scoped lock over a fraz::Mutex — std::lock_guard with the scoped
/// capability attributes, so the analysis knows the guarded region's extent.
class FRAZ_SCOPED_CAPABILITY LockGuard {
public:
  explicit LockGuard(Mutex& mutex) FRAZ_ACQUIRE(mutex) : lock_(mutex.native()) {}
  ~LockGuard() FRAZ_RELEASE() {}

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

private:
  std::lock_guard<std::mutex> lock_;
};

/// Scoped lock that a CondVar can wait on (std::unique_lock semantics).
/// CondVar::wait atomically releases and reacquires; from the analysis's
/// point of view the capability is held for the whole wait, which is exactly
/// right for the guarded reads on either side of it.
class FRAZ_SCOPED_CAPABILITY UniqueLock {
public:
  explicit UniqueLock(Mutex& mutex) FRAZ_ACQUIRE(mutex) : lock_(mutex.native()) {}
  ~UniqueLock() FRAZ_RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// The wrapped lock, for CondVar::wait.
  std::unique_lock<std::mutex>& native() noexcept { return lock_; }

private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over fraz::UniqueLock.  Deliberately exposes only the
/// plain wait — predicate waits hide guarded reads inside a lambda the
/// analysis cannot see into, so call sites spell the loop:
///
///     UniqueLock lock(mutex_);
///     while (!done_) cv_.wait(lock);
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.native()); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

private:
  std::condition_variable cv_;
};

}  // namespace fraz

#endif  // FRAZ_UTIL_THREAD_ANNOTATIONS_HPP
