// relcomp::Mutex — an annotated, ranked mutex.
//
// Two enforcement layers ride on this wrapper:
//
//   1. Static: the CAPABILITY / GUARDED_BY annotations (see
//      thread_annotations.h) let `clang++ -Wthread-safety -Werror` prove at
//      compile time that guarded members are only touched under their mutex.
//
//   2. Dynamic: every Mutex declares a LockRank. In checked builds
//      (RELCOMP_LOCK_RANK_CHECKS=1, the default outside Release) a
//      thread-local held-lock stack verifies that ranks are acquired in
//      strictly ascending order and aborts — printing the held-lock stack
//      and a call backtrace — on any out-of-order or recursive acquisition.
//      This turns a potential deadlock (which a test only hits under the
//      right interleaving) into a deterministic failure on ANY interleaving
//      that merely acquires the locks in the wrong order. Release builds
//      compile the checker out entirely: Mutex is then exactly a std::mutex.
//
// The rank table below encodes the real acquisition order of the codebase
// (outermost first). A thread may only acquire a mutex whose rank is
// STRICTLY GREATER than every mutex it already holds; equal ranks never
// nest. The same table is documented for humans in README.md
// ("Correctness tooling").
#ifndef RELCOMP_UTIL_MUTEX_H_
#define RELCOMP_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

#ifndef RELCOMP_LOCK_RANK_CHECKS
#define RELCOMP_LOCK_RANK_CHECKS 0
#endif

namespace relcomp {

// Lock acquisition order, outermost (acquired first) to innermost. Gaps
// leave room for future layers (e.g. network sharding) without renumbering.
enum class LockRank : int {
  // CompletenessService::registry_mu_ — held across shard registration,
  // which reaches into the queue, the cache (warm restore), and the
  // metrics registry, so it is the outermost lock in the system.
  kServiceRegistry = 10,
  // CompletenessService::Shard::mu — per-shard counters + in-flight map;
  // held while talking to the shard's cache and to traces/cancel groups.
  kShard = 20,
  // CacheBudget::pressure_mu_ — serializes over-budget reservations; held
  // while charging the budget and shedding bytes from peer caches.
  kCachePressure = 30,
  // ShardCache::mu_ — one shard's LRU segments, index, and stats.
  kCache = 40,
  // CacheBudget::mu_ — the budget's registration map; leaf of the cache
  // chain (never held while calling back into a cache).
  kCacheBudget = 50,
  // net::HttpServer::mu_ — the pending-connection queue of the embedded
  // observability endpoint. Workers pop a connection under this lock and
  // release it before parsing or invoking a handler, so the rank never
  // nests with the service/obs locks the handlers take.
  kNetHttpServer = 56,
  // CompletenessService::recorder_wake_mu_ — the sampler thread's sleep
  // mutex. The sampler does all its work (scans, renders, metric reads)
  // strictly outside this lock; it exists only to make shutdown wake the
  // WaitFor. Kept below the obs leaves so the wait itself can never
  // invert against them even if the loop is later restructured.
  kObsRecorderWake = 58,
  // FairQueue::mu_ — scheduler queue state; leaf (tasks run unlocked).
  kSchedQueue = 60,
  // Stream<T>::mu_ — per-stream channel state; leaf.
  kSchedStream = 65,
  // WindowedHistogram::mu_ — sliding-window slot rings; leaf
  // (Record/Snapshot touch only the ring).
  kObsWindow = 67,
  // ActiveEvaluations::mu_ — the registry of running evaluations the stall
  // watchdog scans; leaf (per-record heartbeats are lock-free atomics).
  kObsActive = 68,
  // FlightRecorder::mu_ — the bounded ring of periodic samples; leaf.
  kObsRecorder = 69,
  // SlowDecisionLog::mu_ — holds plain SlowEntry values (the trace inside
  // an entry is only read, never locked, under this mutex); ranked below
  // the obs leaves it historically preceded.
  kObsSlowLog = 70,
  // TraceSink::mu_ — the bounded ring of finished trace records; leaf
  // (records are offered after the trace is sealed and the export renderer
  // reads traces outside this lock).
  kObsTraceSink = 72,
  // MetricsRegistry::mu_ — instrument family map; leaf (instrument
  // updates themselves are lock-free atomics).
  kObsMetrics = 75,
  // Trace::mu_ — per-request span buffer; acquired under Shard::mu (phase
  // annotations mid-decision) and under SlowDecisionLog::mu_.
  kObsTrace = 80,
  // CancelGroup::GroupState::mu — joint-cancellation member list; leaf
  // (members are polled on a snapshot taken outside the lock).
  kCancelGroup = 90,
  // The process-wide symbol intern table; leaf.
  kInterner = 95,
};

/// Hook run from the lock-rank checker's abort path, after the held-lock
/// and call stacks print but before std::abort(), so a higher layer can
/// dump last-gasp forensics (the obs layer registers a flight-recorder /
/// ObsReport dump). The hook runs on the dying thread which may hold
/// arbitrary locks — it must not lock, allocate, or block; in practice it
/// fwrites a pre-rendered buffer. A plain function pointer (not
/// std::function) because util cannot depend on obs and the call site must
/// stay allocation-free. Registration is accepted even when
/// RELCOMP_LOCK_RANK_CHECKS is off (the hook just never fires).
using AbortReportFn = void (*)();
void SetLockRankAbortHook(AbortReportFn fn);

#if RELCOMP_LOCK_RANK_CHECKS
namespace lockrank_internal {
// Validates rank order / non-recursion against the calling thread's
// held-lock stack; aborts with both stacks on violation. Called BEFORE
// blocking on the underlying mutex so the diagnostic fires even when the
// bad acquisition would deadlock rather than proceed.
void CheckAcquire(const void* mu, int rank, const char* name);
// Recursion check only — try-locks never block, so out-of-order try
// acquisition cannot deadlock, but try-locking a mutex the thread already
// holds is UB on std::mutex and always a bug.
void CheckTryAcquire(const void* mu, int rank, const char* name);
void PushHeld(const void* mu, int rank, const char* name);
void PopHeld(const void* mu, const char* name);
}  // namespace lockrank_internal
#endif

class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name)
#if RELCOMP_LOCK_RANK_CHECKS
      : rank_(static_cast<int>(rank)), name_(name)
#endif
  {
    (void)rank;
    (void)name;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if RELCOMP_LOCK_RANK_CHECKS
    lockrank_internal::CheckAcquire(this, rank_, name_);
    mu_.lock();
    lockrank_internal::PushHeld(this, rank_, name_);
#else
    mu_.lock();
#endif
  }

  void Unlock() RELEASE() {
#if RELCOMP_LOCK_RANK_CHECKS
    lockrank_internal::PopHeld(this, name_);
#endif
    mu_.unlock();
  }

  bool TryLock() TRY_ACQUIRE(true) {
#if RELCOMP_LOCK_RANK_CHECKS
    lockrank_internal::CheckTryAcquire(this, rank_, name_);
    const bool acquired = mu_.try_lock();
    if (acquired) lockrank_internal::PushHeld(this, rank_, name_);
    return acquired;
#else
    return mu_.try_lock();
#endif
  }

  // BasicLockable spelling so std::condition_variable_any can wait on a
  // Mutex directly (CondVar below) and re-enter the rank checker on relock.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }

 private:
  std::mutex mu_;
#if RELCOMP_LOCK_RANK_CHECKS
  const int rank_;
  const char* const name_;
#endif
};

// RAII lock for a relcomp::Mutex. SCOPED_CAPABILITY tells the static
// analysis that construction acquires and destruction releases.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable that waits on a relcomp::Mutex. Waiting re-acquires
// through Mutex::lock(), so the rank checker also validates the relock;
// that holds because every wait site in the codebase holds no other ranked
// lock while waiting (blocking with a lower-rank lock held would starve
// the system anyway).
//
// Note: the static analysis does not propagate lock state into lambdas, so
// wait sites use explicit `while (!pred) cv.Wait(mu);` loops rather than
// the predicate overloads of std::condition_variable.
class CondVar {
 public:
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    return cv_.wait_for(mu, timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace relcomp

#endif  // RELCOMP_UTIL_MUTEX_H_
