// FairQueue: the policy-driven multi-tenant work queue behind the service's
// shared worker pool. It replaces the raw std::deque + condition_variable
// with a first-class subsystem:
//
//   ordering    — kFifo (legacy strict arrival order) or kFairShare
//                 (stride scheduling: worker time proportional to tenant
//                 weights, so a cheap tenant interleaves with — instead of
//                 queueing behind — an expensive tenant's backlog);
//   priorities  — three classes per tenant; urgent work overtakes
//                 background work of the same tenant;
//   admission   — per-tenant bounded in-queue quota, with an explicit
//                 overload decision (block the producer vs. reject the
//                 push);
//   deadlines   — a task whose deadline passed while queued is handed back
//                 with TaskOutcome::kExpired so the worker can shed it
//                 without evaluation.
//
// The queue schedules opaque closures tagged with a tenant id; it never
// runs user code under its own lock (expiry is decided here, but the task's
// callback — including shedding — always executes on the popping thread).
#ifndef RELCOMP_SCHED_QUEUE_H_
#define RELCOMP_SCHED_QUEUE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "obs/histogram.h"
#include "sched/policy.h"
#include "util/mutex.h"

namespace relcomp {
namespace sched {

/// How a popped task should be completed by the worker.
enum class TaskOutcome {
  kRun,      ///< execute normally
  kExpired,  ///< deadline passed while queued: shed without evaluating
  kRejected, ///< never admitted (assigned by the caller on Push failure;
             ///< Pop itself never returns this)
};

/// One schedulable unit. `fn` is invoked exactly once, with the outcome and
/// the time the task sat queued (negative when it never touched the queue —
/// run inline or rejected at admission).
struct Task {
  uint64_t tenant = 0;  ///< 0 = untenanted system work (never limited)
  Priority priority = Priority::kNormal;
  TimePoint deadline = kNoDeadline;
  std::function<void(TaskOutcome, std::chrono::microseconds)> fn;

  // Filled by the queue.
  TimePoint enqueued{};                      ///< set by Push
  std::chrono::microseconds wait{0};         ///< set by Pop
};

/// The `wait` value passed to Task::fn for work that never sat in the queue.
constexpr std::chrono::microseconds kNotQueued{-1};

class FairQueue {
 public:
  FairQueue(SchedPolicy policy, OverloadPolicy overload,
            TenantOptions default_tenant = {});
  ~FairQueue() = default;
  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  /// Declares a tenant with explicit options. Idempotent per id: the first
  /// registration's options win (matching the service's setting dedup,
  /// where the first registration defines the shard). Pushing to an
  /// undeclared tenant implicitly registers it with the default options.
  void RegisterTenant(uint64_t tenant, TenantOptions options) EXCLUDES(mu_);

  /// Marks a tenant released; its state is garbage-collected once its
  /// queue drains. Queued tasks still run (they hold their own resources).
  void ReleaseTenant(uint64_t tenant) EXCLUDES(mu_);

  /// Admits a task. Returns false when the task was NOT admitted: the
  /// tenant is over quota under OverloadPolicy::kReject, or the queue shut
  /// down (including while blocked under kBlock). The task is moved-from
  /// only on success, so on failure the caller still owns it and must
  /// complete it (typically task.fn(kRejected, kNotQueued)).
  bool Push(Task&& task) EXCLUDES(mu_);

  /// Blocks for the next task per policy. Returns false only on shutdown
  /// with an empty queue — every admitted task is handed out exactly once
  /// before workers are told to exit, preserving drain-before-shutdown.
  /// `*outcome` is kRun, or kExpired when the task's deadline has passed.
  bool Pop(Task* task, TaskOutcome* outcome) EXCLUDES(mu_);

  /// Wakes blocked producers and consumers; Pop drains remaining tasks
  /// then returns false; Push refuses new work.
  void Shutdown() EXCLUDES(mu_);

  size_t depth() const EXCLUDES(mu_);
  size_t TenantDepth(uint64_t tenant) const EXCLUDES(mu_);

  /// Points the queue at externally owned histograms (microsecond values):
  /// `queue_wait` records every popped task's in-queue residency;
  /// `token_wait` records the time a kBlock producer actually spent blocked
  /// on the quota before admission (recorded only when nonzero, so an
  /// uncontended queue stays silent). Either may be null. The histograms
  /// must outlive the queue; call before workers start.
  void AttachMetrics(obs::Histogram* queue_wait, obs::Histogram* token_wait)
      EXCLUDES(mu_);

 private:
  /// Stride scheduling granularity. Pass advances by kStrideScale/weight
  /// per dispatched task; a power of two keeps the division exact for
  /// power-of-two weights (the common 1:2:4 configurations).
  static constexpr uint64_t kStrideScale = 1 << 20;

  struct Tenant {
    TenantOptions options;
    uint64_t stride = kStrideScale;
    uint64_t pass = 0;       ///< virtual time consumed (kFairShare)
    size_t queued = 0;
    bool released = false;
    std::array<std::deque<Task>, kNumPriorities> by_priority;
  };

  void InitTenant(Tenant& tenant, TenantOptions options) REQUIRES(mu_);
  Tenant& TenantFor(uint64_t id) REQUIRES(mu_);
  /// Whether `tenant` can admit one more task right now.
  bool HasRoom(const Tenant& tenant) const REQUIRES(mu_);
  void GcTenant(uint64_t id) REQUIRES(mu_);

  const SchedPolicy policy_;
  const OverloadPolicy overload_;
  const TenantOptions default_tenant_;

  mutable Mutex mu_{LockRank::kSchedQueue, "FairQueue::mu_"};
  CondVar work_cv_;   ///< waits in Pop
  CondVar space_cv_;  ///< waits in Push (kBlock overload)
  /// Ordered: deterministic tie-break.
  std::map<uint64_t, Tenant> tenants_ GUARDED_BY(mu_);
  /// kFairShare dispatch index: the backlogged tenants ordered by
  /// (pass, id). The head is the stride scheduler's pick in O(log n) —
  /// entries move only when a tenant's pass advances (one erase + insert
  /// per dispatch) or its backlog empties, so thousands of tenants cost a
  /// tree walk instead of the old linear min-pass scan. The id in the key
  /// keeps ties deterministic (lowest tenant id wins, as before).
  std::set<std::pair<uint64_t, uint64_t>> ready_ GUARDED_BY(mu_);
  /// kFifo dispatch order across all tenants, one lane per priority class.
  std::array<std::deque<Task>, kNumPriorities> fifo_ GUARDED_BY(mu_);
  /// Pass of the last dispatched tenant.
  uint64_t global_pass_ GUARDED_BY(mu_) = 0;
  size_t depth_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  obs::Histogram* queue_wait_hist_ GUARDED_BY(mu_) = nullptr;  ///< not owned
  obs::Histogram* token_wait_hist_ GUARDED_BY(mu_) = nullptr;  ///< not owned
};

}  // namespace sched
}  // namespace relcomp

#endif  // RELCOMP_SCHED_QUEUE_H_
