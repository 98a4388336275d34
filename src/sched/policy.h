// Scheduling vocabulary for the service's fair-share queue: which policy
// orders the shared worker queue, what happens on overload, the per-tenant
// admission knobs, and the priority class a submission carries.
//
// The sched/ layer is deliberately below service/: it schedules opaque
// tasks tagged with a tenant id and knows nothing about settings, queries,
// or decisions. The service maps setting shards onto tenants.
#ifndef RELCOMP_SCHED_POLICY_H_
#define RELCOMP_SCHED_POLICY_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace relcomp {
namespace sched {

/// Monotonic clock used for deadlines and wait-time accounting. A wall
/// clock would travel backwards under NTP slew and resurrect expired
/// requests.
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// "No deadline": requests default to waiting as long as it takes.
constexpr TimePoint kNoDeadline = TimePoint::max();

/// A deadline `ms` milliseconds from now. A request still queued past it
/// is shed before evaluation; one already running aborts at the decider's
/// next cooperative checkpoint.
inline TimePoint DeadlineAfterMs(uint64_t ms) {
  return Clock::now() + std::chrono::milliseconds(ms);
}

/// How the shared queue orders work across tenants.
enum class SchedPolicy {
  /// Strict global arrival order (the legacy service behavior). Priority
  /// classes still separate urgent from background work, but tenants share
  /// one lane: an expensive tenant's burst delays everyone behind it.
  kFifo,
  /// Stride scheduling across tenants: each tenant advances a virtual-time
  /// "pass" by kStrideScale / weight per dispatched task, and the queue
  /// always serves the smallest pass. Tenants receive worker time
  /// proportional to their weights regardless of how much they enqueue, so
  /// a cheap tenant is never starved behind a bulk tenant's backlog.
  kFairShare,
};

/// The explicit overload decision: what Push does when a tenant's in-queue
/// quota is exhausted.
enum class OverloadPolicy {
  /// Block the submitting thread until the tenant has room again —
  /// backpressure propagates to the producer.
  kBlock,
  /// Refuse admission: Push fails and the service reports the request as
  /// rejected (a Decision with StatusCode::kUnavailable), never losing it
  /// silently.
  kReject,
};

/// Priority classes within a tenant: urgent work overtakes background work
/// belonging to the same tenant, but never steals another tenant's share.
/// Under kFifo with default (kNormal) priorities the queue is exactly the
/// legacy arrival order.
enum class Priority : uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};
constexpr size_t kNumPriorities = 3;

/// Per-tenant admission-control and fairness knobs, fixed at tenant
/// registration (the service forwards them from ShardOptions).
struct TenantOptions {
  /// Fair-share weight: a weight-4 tenant receives 4x the worker time of a
  /// weight-1 tenant while both have work queued. Ignored under kFifo.
  /// Zero is coerced to 1.
  uint32_t weight = 1;
  /// Bounded in-queue quota: at most this many tasks of the tenant queued
  /// at once. 0 = unbounded. Excess triggers the OverloadPolicy.
  size_t max_queue = 0;
};

}  // namespace sched
}  // namespace relcomp

#endif  // RELCOMP_SCHED_POLICY_H_
