#include "sched/queue.h"

#include <algorithm>
#include <utility>

namespace relcomp {
namespace sched {

FairQueue::FairQueue(SchedPolicy policy, OverloadPolicy overload,
                     TenantOptions default_tenant)
    : policy_(policy),
      overload_(overload),
      default_tenant_(default_tenant) {}

void FairQueue::RegisterTenant(uint64_t tenant, TenantOptions options) {
  MutexLock lock(mu_);
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (!inserted) {
    // First registration wins; a re-registration only revives a tenant
    // that was released (or implicitly created) but not yet drained.
    it->second.released = false;
    return;
  }
  InitTenant(it->second, options);
  it->second.released = false;  // explicit registrations live until released
}

void FairQueue::ReleaseTenant(uint64_t tenant) {
  MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.released = true;
  GcTenant(tenant);
}

void FairQueue::InitTenant(Tenant& tenant, TenantOptions options) {
  tenant.options = options;
  tenant.stride = kStrideScale / std::max<uint32_t>(1, options.weight);
  tenant.pass = global_pass_;
}

FairQueue::Tenant& FairQueue::TenantFor(uint64_t id) {
  auto it = tenants_.find(id);
  if (it != tenants_.end()) return it->second;
  // Implicit registration. Tenant 0 (system work: batch fan-out plumbing)
  // is never limited; real tenants inherit the queue-wide defaults.
  // Implicit entries are born `released`, i.e. garbage-collected as soon
  // as they drain: a straggler push racing ReleaseSetting (or untenanted
  // system work) must not leak a permanent tenants_ entry.
  Tenant& tenant = tenants_[id];
  InitTenant(tenant, id == 0 ? TenantOptions{} : default_tenant_);
  tenant.released = true;
  return tenant;
}

bool FairQueue::HasRoom(const Tenant& tenant) const {
  return tenant.options.max_queue == 0 ||
         tenant.queued < tenant.options.max_queue;
}

bool FairQueue::Push(Task&& task) {
  MutexLock lock(mu_);
  TimePoint blocked_since{};
  bool blocked = false;
  // Quota wait, as an explicit loop (the static analysis does not see into
  // predicate lambdas). Re-fetch the tenant each round: blocking can
  // outlive a released tenant's tenants_ entry.
  while (!shutdown_ && !HasRoom(TenantFor(task.tenant))) {
    if (overload_ == OverloadPolicy::kReject) return false;
    if (!blocked) {
      blocked = true;
      blocked_since = Clock::now();
    }
    space_cv_.Wait(mu_);
  }
  if (shutdown_) return false;
  Tenant& tenant = TenantFor(task.tenant);
  task.enqueued = Clock::now();
  if (blocked && token_wait_hist_ != nullptr) {
    token_wait_hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(task.enqueued -
                                                              blocked_since)
            .count()));
  }
  const size_t lane = static_cast<size_t>(task.priority);
  const bool was_idle = tenant.queued == 0;
  ++tenant.queued;
  ++depth_;
  if (policy_ == SchedPolicy::kFifo) {
    fifo_[lane].push_back(std::move(task));
  } else {
    if (was_idle) {
      // A tenant returning from idle joins at the current virtual time
      // instead of spending credit hoarded while away, and enters the
      // pass-ordered dispatch index.
      tenant.pass = std::max(tenant.pass, global_pass_);
      ready_.emplace(tenant.pass, task.tenant);
    }
    tenant.by_priority[lane].push_back(std::move(task));
  }
  work_cv_.NotifyOne();
  return true;
}

bool FairQueue::Pop(Task* task, TaskOutcome* outcome) {
  MutexLock lock(mu_);
  while (!shutdown_ && depth_ == 0) work_cv_.Wait(mu_);
  if (depth_ == 0) return false;  // shutdown with a drained queue

  if (policy_ == SchedPolicy::kFifo) {
    for (auto& lane : fifo_) {
      if (lane.empty()) continue;
      *task = std::move(lane.front());
      lane.pop_front();
      break;
    }
    auto it = tenants_.find(task->tenant);
    if (it != tenants_.end()) {
      --it->second.queued;
      GcTenant(task->tenant);
    }
  } else {
    // The dispatch index head is the backlogged tenant with the smallest
    // pass (ties: lowest id); depth_ > 0 guarantees it exists.
    const uint64_t id = ready_.begin()->second;
    ready_.erase(ready_.begin());
    Tenant& tenant = tenants_.at(id);
    for (auto& lane : tenant.by_priority) {
      if (lane.empty()) continue;
      *task = std::move(lane.front());
      lane.pop_front();
      break;
    }
    global_pass_ = tenant.pass;
    tenant.pass += tenant.stride;
    --tenant.queued;
    if (tenant.queued > 0) {
      ready_.emplace(tenant.pass, id);  // re-key at the advanced pass
    } else {
      GcTenant(id);
    }
  }
  --depth_;
  // NotifyAll, not NotifyOne: space_cv_ waiters wait on different
  // tenants' quotas, so a single wakeup could land on a producer whose
  // tenant is still full while an admissible one keeps sleeping.
  space_cv_.NotifyAll();

  const TimePoint now = Clock::now();
  task->wait = std::chrono::duration_cast<std::chrono::microseconds>(
      now - task->enqueued);
  if (queue_wait_hist_ != nullptr) {
    queue_wait_hist_->Record(static_cast<uint64_t>(task->wait.count()));
  }
  *outcome = task->deadline < now ? TaskOutcome::kExpired : TaskOutcome::kRun;
  return true;
}

void FairQueue::AttachMetrics(obs::Histogram* queue_wait,
                              obs::Histogram* token_wait) {
  MutexLock lock(mu_);
  queue_wait_hist_ = queue_wait;
  token_wait_hist_ = token_wait;
}

void FairQueue::GcTenant(uint64_t id) {
  auto it = tenants_.find(id);
  if (it != tenants_.end() && it->second.released && it->second.queued == 0) {
    tenants_.erase(it);
  }
}

void FairQueue::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  space_cv_.NotifyAll();
}

size_t FairQueue::depth() const {
  MutexLock lock(mu_);
  return depth_;
}

size_t FairQueue::TenantDepth(uint64_t tenant) const {
  MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.queued;
}

}  // namespace sched
}  // namespace relcomp
