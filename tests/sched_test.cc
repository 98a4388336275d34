// Scheduler subsystem invariants, at two levels.
//
// FairQueue unit tests pin the deterministic core: strict arrival order
// under kFifo, stride interleaving proportional to tenant weights under
// kFairShare (starvation-freedom), priority lanes, quota admission control
// under both overload policies, and deadline shedding at pop.
//
// Service-level tests drive the scheduler through CompletenessService with
// a plugged single-worker pool so queue contents are fully controlled:
// fair-share completes a cheap tenant interleaved with (FIFO: strictly
// after) an expensive tenant's backlog, a request's options.deadline sheds
// it while queued and aborts it mid-run, a coalesced flight group is
// cancelled only when ALL waiters cancel, admission control rejects
// over-quota requests with kUnavailable decisions, and SubmitStream
// delivers decisions identical to SubmitBatch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sched/cancel.h"
#include "sched/policy.h"
#include "sched/queue.h"
#include "sched/stream.h"
#include "service/service.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::AuditFixture;
using testing::MakeAuditFixture;

// ---------------------------------------------------------------------------
// FairQueue unit tests
// ---------------------------------------------------------------------------

sched::Task MakeTask(uint64_t tenant, std::vector<uint64_t>* order,
                     sched::Priority priority = sched::Priority::kNormal) {
  sched::Task task;
  task.tenant = tenant;
  task.priority = priority;
  task.fn = [tenant, order](sched::TaskOutcome, std::chrono::microseconds) {
    order->push_back(tenant);
  };
  return task;
}

TEST(FairQueueTest, FifoPreservesArrivalOrderAcrossTenants) {
  sched::FairQueue queue(sched::SchedPolicy::kFifo,
                         sched::OverloadPolicy::kBlock);
  std::vector<uint64_t> order;
  for (uint64_t tenant : {1u, 2u, 1u, 3u, 2u, 1u}) {
    ASSERT_TRUE(queue.Push(MakeTask(tenant, &order)));
  }
  EXPECT_EQ(queue.depth(), 6u);
  queue.Shutdown();
  sched::Task task;
  sched::TaskOutcome outcome;
  while (queue.Pop(&task, &outcome)) task.fn(outcome, task.wait);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 1, 3, 2, 1}));
}

TEST(FairQueueTest, PriorityLanesOvertakeWithinPolicy) {
  for (sched::SchedPolicy policy :
       {sched::SchedPolicy::kFifo, sched::SchedPolicy::kFairShare}) {
    sched::FairQueue queue(policy, sched::OverloadPolicy::kBlock);
    std::vector<uint64_t> order;
    // Encode the priority in the "tenant" recorded: one tenant, three
    // priorities, pushed low → normal → high.
    sched::Task low = MakeTask(3, &order, sched::Priority::kLow);
    sched::Task normal = MakeTask(2, &order, sched::Priority::kNormal);
    sched::Task high = MakeTask(1, &order, sched::Priority::kHigh);
    // All belong to tenant 7 so fair-share has a single lane to order.
    low.tenant = normal.tenant = high.tenant = 7;
    low.fn = [&order](sched::TaskOutcome, std::chrono::microseconds) {
      order.push_back(3);
    };
    normal.fn = [&order](sched::TaskOutcome, std::chrono::microseconds) {
      order.push_back(2);
    };
    high.fn = [&order](sched::TaskOutcome, std::chrono::microseconds) {
      order.push_back(1);
    };
    ASSERT_TRUE(queue.Push(std::move(low)));
    ASSERT_TRUE(queue.Push(std::move(normal)));
    ASSERT_TRUE(queue.Push(std::move(high)));
    queue.Shutdown();
    sched::Task task;
    sched::TaskOutcome outcome;
    while (queue.Pop(&task, &outcome)) task.fn(outcome, task.wait);
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 3}))
        << "policy=" << static_cast<int>(policy);
  }
}

TEST(FairQueueTest, StrideSchedulingInterleavesByWeightWithoutStarvation) {
  // Tenant 1 has weight 4, tenant 2 weight 1: with both backlogged, tenant
  // 1 receives ~4x the dispatches, and tenant 2 is never starved.
  sched::FairQueue queue(sched::SchedPolicy::kFairShare,
                         sched::OverloadPolicy::kBlock);
  queue.RegisterTenant(1, sched::TenantOptions{/*weight=*/4});
  queue.RegisterTenant(2, sched::TenantOptions{/*weight=*/1});
  std::vector<uint64_t> order;
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.Push(MakeTask(1, &order)));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.Push(MakeTask(2, &order)));
  EXPECT_EQ(queue.TenantDepth(1), 8u);
  EXPECT_EQ(queue.TenantDepth(2), 8u);
  queue.Shutdown();
  sched::Task task;
  sched::TaskOutcome outcome;
  while (queue.Pop(&task, &outcome)) task.fn(outcome, task.wait);

  ASSERT_EQ(order.size(), 16u);
  // Ratio bound: the 4:1 weights give the heavy-weight tenant at least 7
  // of the first 10 dispatches, while the weight-1 tenant still makes
  // progress (at least one dispatch in every 6-task window until drained).
  size_t heavy_in_first_10 = 0;
  for (size_t i = 0; i < 10; ++i) heavy_in_first_10 += order[i] == 1;
  EXPECT_GE(heavy_in_first_10, 7u);
  EXPECT_LE(heavy_in_first_10, 9u);  // starvation-freedom: tenant 2 appears
  size_t first_light = 0;
  while (order[first_light] != 2) ++first_light;
  EXPECT_LE(first_light, 4u) << "weight-1 tenant starved at the head";
  // Both tenants complete; the weight-4 tenant drains first.
  size_t last_heavy = 0, last_light = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    (order[i] == 1 ? last_heavy : last_light) = i;
  }
  EXPECT_LT(last_heavy, last_light);
}

TEST(FairQueueTest, QuotaRejectsWhenOverloadPolicyIsReject) {
  sched::FairQueue queue(sched::SchedPolicy::kFifo,
                         sched::OverloadPolicy::kReject);
  queue.RegisterTenant(1, sched::TenantOptions{/*weight=*/1, /*max_queue=*/2});
  std::vector<uint64_t> order;
  EXPECT_TRUE(queue.Push(MakeTask(1, &order)));
  EXPECT_TRUE(queue.Push(MakeTask(1, &order)));
  sched::Task rejected = MakeTask(1, &order);
  EXPECT_FALSE(queue.Push(std::move(rejected)));
  ASSERT_NE(rejected.fn, nullptr) << "failed Push must not consume the task";
  // Another tenant is unaffected by tenant 1's quota.
  EXPECT_TRUE(queue.Push(MakeTask(2, &order)));
}

TEST(FairQueueTest, QuotaBlocksProducerUntilSpaceFrees) {
  sched::FairQueue queue(sched::SchedPolicy::kFifo,
                         sched::OverloadPolicy::kBlock);
  queue.RegisterTenant(1, sched::TenantOptions{/*weight=*/1, /*max_queue=*/1});
  std::vector<uint64_t> order;
  ASSERT_TRUE(queue.Push(MakeTask(1, &order)));
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    sched::Task task = MakeTask(1, &order);
    ASSERT_TRUE(queue.Push(std::move(task)));  // blocks until a pop
    admitted = true;
  });
  // The producer must be blocked: give it a moment, then free a slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  sched::Task task;
  sched::TaskOutcome outcome;
  ASSERT_TRUE(queue.Pop(&task, &outcome));
  task.fn(outcome, task.wait);
  producer.join();
  EXPECT_TRUE(admitted.load());
}

TEST(FairQueueTest, ExpiredDeadlineShedsAtPop) {
  sched::FairQueue queue(sched::SchedPolicy::kFairShare,
                         sched::OverloadPolicy::kBlock);
  std::vector<uint64_t> order;
  sched::Task stale = MakeTask(1, &order);
  stale.deadline = sched::Clock::now() - std::chrono::milliseconds(1);
  sched::Task fresh = MakeTask(2, &order);
  ASSERT_TRUE(queue.Push(std::move(stale)));
  ASSERT_TRUE(queue.Push(std::move(fresh)));
  queue.Shutdown();
  sched::Task task;
  sched::TaskOutcome outcome;
  ASSERT_TRUE(queue.Pop(&task, &outcome));
  EXPECT_EQ(outcome, sched::TaskOutcome::kExpired);
  EXPECT_EQ(task.tenant, 1u);
  ASSERT_TRUE(queue.Pop(&task, &outcome));
  EXPECT_EQ(outcome, sched::TaskOutcome::kRun);
  EXPECT_EQ(task.tenant, 2u);
  EXPECT_FALSE(queue.Pop(&task, &outcome));
}

TEST(CancelGroupTest, JointTokenFiresOnlyWhenEveryMemberCancels) {
  sched::CancelGroup group;
  sched::CancelToken joint = group.token();
  EXPECT_FALSE(joint.cancelled()) << "an empty group must not be cancelled";

  sched::CancelSource a, b;
  group.Add(a.token());
  group.Add(b.token());
  a.Cancel();
  EXPECT_FALSE(joint.cancelled()) << "one live member must pin the group";
  b.Cancel();
  EXPECT_TRUE(joint.cancelled());
}

TEST(CancelGroupTest, InvalidMemberPinsTheGroupForever) {
  sched::CancelGroup group;
  sched::CancelSource a;
  group.Add(a.token());
  group.Add(sched::CancelToken{});  // a participant that can never cancel
  a.Cancel();
  EXPECT_FALSE(group.cancelled());
  // Even members added later cannot un-pin it.
  sched::CancelSource b;
  b.Cancel();
  group.Add(b.token());
  EXPECT_FALSE(group.token().cancelled());
}

TEST(CancelGroupTest, LateJoinerRevivesAnAllCancelledGroup) {
  sched::CancelGroup group;
  sched::CancelSource a;
  group.Add(a.token());
  a.Cancel();
  EXPECT_TRUE(group.cancelled());
  // A live joiner arriving before the computation observed the joint
  // cancellation keeps it alive again.
  sched::CancelSource b;
  group.Add(b.token());
  EXPECT_FALSE(group.cancelled());
  b.Cancel();
  EXPECT_TRUE(group.cancelled());
}

TEST(FairQueueTest, ManyTenantHeapKeepsDeterministicTieBreakOrder) {
  // 64 tenants, equal weights, one task each pushed in DESCENDING id
  // order: every pass is equal, so the pass-ordered dispatch index must
  // resolve ties by lowest tenant id — ascending pops, independent of
  // arrival order.
  sched::FairQueue queue(sched::SchedPolicy::kFairShare,
                         sched::OverloadPolicy::kBlock);
  std::vector<uint64_t> order;
  for (uint64_t tenant = 64; tenant >= 1; --tenant) {
    ASSERT_TRUE(queue.Push(MakeTask(tenant, &order)));
  }
  queue.Shutdown();
  sched::Task task;
  sched::TaskOutcome outcome;
  while (queue.Pop(&task, &outcome)) task.fn(outcome, task.wait);
  ASSERT_EQ(order.size(), 64u);
  for (uint64_t i = 0; i < 64; ++i) EXPECT_EQ(order[i], i + 1);
}

TEST(FairQueueTest, ManyTenantHeapStaysProportionalUnderLoad) {
  // 60 backlogged tenants, weight 3 for every third tenant: across the
  // first half of the dispatches, the heavy group's per-capita share must
  // sit clearly above the light group's (stride fairness survives the
  // linear-scan → pass-ordered-heap swap), and two identical runs must
  // dispatch identically (heap order is deterministic).
  auto run = [] {
    sched::FairQueue queue(sched::SchedPolicy::kFairShare,
                           sched::OverloadPolicy::kBlock);
    std::vector<uint64_t> order;
    constexpr uint64_t kTenants = 60;
    constexpr int kTasksEach = 6;
    for (uint64_t tenant = 1; tenant <= kTenants; ++tenant) {
      queue.RegisterTenant(
          tenant, sched::TenantOptions{tenant % 3 == 0 ? 3u : 1u});
    }
    for (int round = 0; round < kTasksEach; ++round) {
      for (uint64_t tenant = 1; tenant <= kTenants; ++tenant) {
        EXPECT_TRUE(queue.Push(MakeTask(tenant, &order)));
      }
    }
    queue.Shutdown();
    sched::Task task;
    sched::TaskOutcome outcome;
    while (queue.Pop(&task, &outcome)) task.fn(outcome, task.wait);
    return order;
  };
  std::vector<uint64_t> order = run();
  ASSERT_EQ(order.size(), 360u);
  size_t heavy_first_half = 0, light_first_half = 0;
  for (size_t i = 0; i < order.size() / 2; ++i) {
    (order[i] % 3 == 0 ? heavy_first_half : light_first_half) += 1;
  }
  // Per-capita: 20 heavy tenants vs 40 light. Weight 3:1 means the heavy
  // group's per-capita dispatch rate should be ~3x in the contended half.
  const double heavy_rate = static_cast<double>(heavy_first_half) / 20.0;
  const double light_rate = static_cast<double>(light_first_half) / 40.0;
  EXPECT_GT(heavy_rate, 2.0 * light_rate)
      << "heavy=" << heavy_first_half << " light=" << light_first_half;
  EXPECT_EQ(order, run()) << "heap dispatch order is not deterministic";
}

TEST(FairQueueTest, ShutdownDrainsAdmittedTasksThenStops) {
  sched::FairQueue queue(sched::SchedPolicy::kFifo,
                         sched::OverloadPolicy::kBlock);
  std::vector<uint64_t> order;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.Push(MakeTask(1, &order)));
  queue.Shutdown();
  EXPECT_FALSE(queue.Push(MakeTask(1, &order)));
  sched::Task task;
  sched::TaskOutcome outcome;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.Pop(&task, &outcome));
  EXPECT_FALSE(queue.Pop(&task, &outcome));
}

// ---------------------------------------------------------------------------
// Service-level scheduler tests
// ---------------------------------------------------------------------------

ServiceOptions MakeOptions(size_t workers, size_t cache) {
  ServiceOptions options;
  options.num_workers = workers;
  options.cache_capacity = cache;
  return options;
}

/// Eight pairwise-distinct requests against `fx` (one per problem kind).
std::vector<DecisionRequest> DistinctWorkload(const AuditFixture& fx) {
  std::vector<DecisionRequest> requests;
  for (ProblemKind kind : AllProblemKinds()) {
    DecisionRequest request;
    request.kind = kind;
    request.query = fx.by_patient;
    request.cinstance = fx.audited;
    request.rcqp_max_tuples = 2;
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Occupies the service's (single) worker until released: submits one
/// request whose completion callback blocks. While plugged, every later
/// submission parks in the queue, making dispatch order fully
/// deterministic.
class WorkerPlug {
 public:
  void Install(CompletenessService* service, SettingHandle handle,
               const AuditFixture& fx) {
    DecisionRequest request;
    request.kind = ProblemKind::kRcdpStrong;
    request.query = fx.all_cities;  // distinct from DistinctWorkload requests
    request.cinstance = fx.audited;
    service->SubmitAsync(ServiceRequest{handle, std::move(request)},
                         [this](Decision) {
                           started_.set_value();
                           release_.get_future().wait();
                         });
    started_.get_future().wait();  // the worker is now inside the callback
  }
  void Release() { release_.set_value(); }

 private:
  std::promise<void> started_;
  std::promise<void> release_;
};

struct CompletionLog {
  std::mutex mu;
  std::vector<uint64_t> order;  // completing tenant ids
  std::promise<void> all_done;
  size_t expected = 0;
  size_t completed = 0;

  std::function<void(Decision)> Callback(uint64_t tenant) {
    return [this, tenant](Decision decision) {
      ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tenant);
      if (++completed == expected) all_done.set_value();
    };
  }
};

/// Runs the contended two-tenant scenario under `policy` with one worker:
/// 8 expensive-tenant requests enqueued BEFORE 8 cheap-tenant requests,
/// cheap weighted 4:1 over expensive. Returns completion order as tenant
/// ids (1 = cheap, 2 = expensive).
std::vector<uint64_t> RunContendedScenario(sched::SchedPolicy policy) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  options.policy = policy;
  CompletenessService service(options);

  AuditFixture cheap_fx = MakeAuditFixture(0);
  AuditFixture heavy_fx = MakeAuditFixture(1);
  ShardOptions cheap_opts;
  cheap_opts.weight = 4;
  ShardOptions heavy_opts;
  heavy_opts.weight = 1;
  // Cheap registers first: deterministic stride tie-break by tenant id.
  Result<SettingHandle> cheap = service.RegisterSetting(cheap_fx.setting,
                                                        cheap_opts);
  Result<SettingHandle> heavy = service.RegisterSetting(heavy_fx.setting,
                                                        heavy_opts);
  EXPECT_TRUE(cheap.ok() && heavy.ok());

  WorkerPlug plug;
  plug.Install(&service, *heavy, heavy_fx);

  CompletionLog log;
  log.expected = 16;
  // The expensive tenant's whole backlog is enqueued first.
  for (DecisionRequest& request : DistinctWorkload(heavy_fx)) {
    service.SubmitAsync(ServiceRequest{*heavy, std::move(request)},
                        log.Callback(2));
  }
  for (DecisionRequest& request : DistinctWorkload(cheap_fx)) {
    service.SubmitAsync(ServiceRequest{*cheap, std::move(request)},
                        log.Callback(1));
  }
  plug.Release();
  log.all_done.get_future().wait();
  std::lock_guard<std::mutex> lock(log.mu);
  return log.order;
}

TEST(SchedServiceTest, FairShareInterleavesCheapTenantUnderOneWorker) {
  std::vector<uint64_t> order =
      RunContendedScenario(sched::SchedPolicy::kFairShare);
  ASSERT_EQ(order.size(), 16u);
  size_t first_heavy = order.size(), last_cheap = 0, last_heavy = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 2 && first_heavy == order.size()) first_heavy = i;
    (order[i] == 1 ? last_cheap : last_heavy) = i;
  }
  // Interleaved, not strictly after: the cheap tenant finishes well before
  // the expensive backlog does, and at least one expensive request
  // completes before the last cheap one (both make progress).
  EXPECT_LT(last_cheap, last_heavy);
  EXPECT_LE(last_cheap, 11u) << "cheap tenant did not get its 4:1 share";
  EXPECT_LT(first_heavy, last_cheap) << "expensive tenant starved";
}

TEST(SchedServiceTest, DefaultFifoCompletesCheapTenantStrictlyAfter) {
  // The legacy policy control: everything enqueued first finishes first.
  std::vector<uint64_t> order =
      RunContendedScenario(sched::SchedPolicy::kFifo);
  ASSERT_EQ(order.size(), 16u);
  std::vector<uint64_t> expected(8, 2);
  expected.insert(expected.end(), 8, 1);
  EXPECT_EQ(order, expected);
}

TEST(SchedServiceTest, QueuedDeadlineIsShedBeforeEvaluation) {
  ServiceOptions options;
  options.num_workers = 1;
  CompletenessService service(options);
  AuditFixture fx = MakeAuditFixture();
  Result<SettingHandle> handle = service.RegisterSetting(fx.setting);
  ASSERT_TRUE(handle.ok());

  WorkerPlug plug;
  plug.Install(&service, *handle, fx);

  ServiceRequest request;
  request.setting = *handle;
  request.request.kind = ProblemKind::kRcdpStrong;
  request.request.query = fx.by_patient;
  request.request.cinstance = fx.audited;
  request.request.options.deadline = sched::DeadlineAfterMs(40);
  std::future<Decision> future = service.SubmitAsync(std::move(request));

  // Let the deadline lapse while the request is parked, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  plug.Release();
  Decision decision = future.get();
  EXPECT_EQ(decision.status.code(), StatusCode::kDeadlineExceeded);

  Result<EngineCounters> counters = service.counters(*handle);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->expired, 1u);
  // Shed BEFORE evaluation: only the plug request ever reached a decider.
  EXPECT_EQ(counters->cache_misses, 1u);
}

TEST(SchedServiceTest, CoalescedGroupSurvivesPartialCancellation) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  CompletenessService service(options);
  AuditFixture fx = MakeAuditFixture();
  Result<SettingHandle> handle = service.RegisterSetting(fx.setting);
  ASSERT_TRUE(handle.ok());

  WorkerPlug plug;
  plug.Install(&service, *handle, fx);

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;

  sched::CancelSource sources[3];
  std::vector<std::future<Decision>> futures;
  for (int i = 0; i < 3; ++i) {
    ServiceRequest sr;
    sr.setting = *handle;
    sr.request = request;
    sr.request.options.cancel = sources[i].token();
    futures.push_back(service.SubmitAsync(std::move(sr)));
  }
  // Two of three waiters cancel: the group must still evaluate for the
  // third.
  sources[0].Cancel();
  sources[1].Cancel();
  plug.Release();

  EXPECT_EQ(futures[0].get().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(futures[1].get().status.code(), StatusCode::kCancelled);
  Decision live = futures[2].get();
  EXPECT_TRUE(live.status.ok()) << live.status.ToString();

  Result<EngineCounters> counters = service.counters(*handle);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->requests, 4u);  // plug + 3 coalesced submissions
  EXPECT_EQ(counters->cancelled, 2u);
  EXPECT_EQ(counters->cache_misses, 2u);  // plug + the surviving evaluation
}

TEST(SchedServiceTest, CoalescedGroupShedsOnlyWhenAllWaitersCancel) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  CompletenessService service(options);
  AuditFixture fx = MakeAuditFixture();
  Result<SettingHandle> handle = service.RegisterSetting(fx.setting);
  ASSERT_TRUE(handle.ok());

  WorkerPlug plug;
  plug.Install(&service, *handle, fx);

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;

  sched::CancelSource sources[3];
  std::vector<std::future<Decision>> futures;
  for (int i = 0; i < 3; ++i) {
    ServiceRequest sr;
    sr.setting = *handle;
    sr.request = request;
    sr.request.options.cancel = sources[i].token();
    futures.push_back(service.SubmitAsync(std::move(sr)));
  }
  for (sched::CancelSource& source : sources) source.Cancel();
  plug.Release();

  for (std::future<Decision>& future : futures) {
    EXPECT_EQ(future.get().status.code(), StatusCode::kCancelled);
  }
  Result<EngineCounters> counters = service.counters(*handle);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->cancelled, 3u);
  // The evaluation never ran: only the plug's miss exists.
  EXPECT_EQ(counters->cache_misses, 1u);
  EXPECT_EQ(counters->requests, 4u);
}

TEST(SchedServiceTest, OverQuotaRequestsAreRejectedWithUnavailable) {
  ServiceOptions options;
  options.num_workers = 1;
  options.overload = sched::OverloadPolicy::kReject;
  CompletenessService service(options);
  AuditFixture fx = MakeAuditFixture();
  ShardOptions shard_options;
  shard_options.max_queue = 1;
  Result<SettingHandle> handle =
      service.RegisterSetting(fx.setting, shard_options);
  ASSERT_TRUE(handle.ok());

  WorkerPlug plug;
  plug.Install(&service, *handle, fx);

  std::vector<DecisionRequest> distinct = DistinctWorkload(fx);
  // First distinct request fills the single queue slot; the second is
  // refused; a third that COALESCES with the first consumes no slot.
  std::future<Decision> queued =
      service.SubmitAsync(ServiceRequest{*handle, distinct[0]});
  std::future<Decision> rejected =
      service.SubmitAsync(ServiceRequest{*handle, distinct[1]});
  std::future<Decision> coalesced =
      service.SubmitAsync(ServiceRequest{*handle, distinct[0]});

  Decision rejected_decision = rejected.get();  // resolved synchronously
  EXPECT_EQ(rejected_decision.status.code(), StatusCode::kUnavailable);

  plug.Release();
  EXPECT_TRUE(queued.get().status.ok());
  Decision joined = coalesced.get();
  EXPECT_TRUE(joined.status.ok());
  EXPECT_TRUE(joined.from_cache);

  Result<EngineCounters> counters = service.counters(*handle);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->rejected, 1u);
  EXPECT_EQ(counters->coalesced, 1u);
}

TEST(SchedServiceTest, SubmitStreamMatchesSubmitBatch) {
  AuditFixture fx_a = MakeAuditFixture(0);
  AuditFixture fx_b = MakeAuditFixture(1);
  for (size_t workers : {0u, 3u}) {
    for (sched::SchedPolicy policy :
         {sched::SchedPolicy::kFifo, sched::SchedPolicy::kFairShare}) {
      ServiceOptions options;
      options.num_workers = workers;
      options.cache_capacity = 0;  // from_cache is then deterministic
      options.policy = policy;

      auto build_workload = [&](CompletenessService& service,
                                std::vector<ServiceRequest>* out) {
        Result<SettingHandle> a = service.RegisterSetting(fx_a.setting);
        Result<SettingHandle> b = service.RegisterSetting(fx_b.setting);
        ASSERT_TRUE(a.ok() && b.ok());
        for (const DecisionRequest& request : DistinctWorkload(fx_a)) {
          out->push_back(ServiceRequest{*a, request});
        }
        for (const DecisionRequest& request : DistinctWorkload(fx_b)) {
          out->push_back(ServiceRequest{*b, request});
        }
        // Duplicates and an unknown handle exercise dup delivery and
        // error slots through both paths.
        out->push_back(ServiceRequest{*a, DistinctWorkload(fx_a)[0]});
        out->push_back(ServiceRequest{*a, DistinctWorkload(fx_a)[0]});
        out->push_back(
            ServiceRequest{SettingHandle{999}, DistinctWorkload(fx_a)[1]});
      };

      CompletenessService batch_service(options);
      std::vector<ServiceRequest> batch_workload;
      build_workload(batch_service, &batch_workload);
      std::vector<Decision> batch = batch_service.SubmitBatch(batch_workload);

      CompletenessService stream_service(options);
      std::vector<ServiceRequest> stream_workload;
      build_workload(stream_service, &stream_workload);
      std::vector<Decision> pulled(stream_workload.size());
      std::vector<int> delivered(stream_workload.size(), 0);
      DecisionStream stream;
      stream_service.SubmitStream(stream_workload, &stream);
      stream.Drain([&](StreamedDecision item) {
        pulled[item.index] = std::move(item.decision);
        ++delivered[item.index];
      });

      ASSERT_EQ(batch.size(), pulled.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(delivered[i], 1) << "index " << i << " delivered twice";
        EXPECT_EQ(batch[i].ToString(), pulled[i].ToString())
            << "stream mismatch at " << i << " (workers=" << workers << ")";
        EXPECT_EQ(batch[i].from_cache, pulled[i].from_cache);
        EXPECT_EQ(batch[i].status.code(), pulled[i].status.code());
      }
    }
  }
}

TEST(SchedServiceTest, BatchDuplicateKeepsOwnCancellationFate) {
  // Two identical requests in one batch form a dedup group; like an
  // in-flight flight group, the computation survives as long as ONE
  // member is live, and each member reports its own fate.
  AuditFixture fx = MakeAuditFixture();
  for (size_t workers : {0u, 2u}) {
    CompletenessService service(MakeOptions(workers, /*cache=*/0));
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
    DecisionRequest request;
    request.kind = ProblemKind::kRcdpStrong;
    request.query = fx.by_patient;
    request.cinstance = fx.audited;

    sched::CancelSource cancelled_source;
    cancelled_source.Cancel();
    ServiceRequest doomed{handle, request};
    doomed.request.options.cancel = cancelled_source.token();
    ServiceRequest live{handle, request};  // no token: permanently live

    std::vector<Decision> decisions = service.SubmitBatch({doomed, live});
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_EQ(decisions[0].status.code(), StatusCode::kCancelled);
    ASSERT_TRUE(decisions[1].status.ok()) << decisions[1].status.ToString();

    ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.cache_misses, 1u);
    EXPECT_EQ(counters.cancelled, 1u);

    // When EVERY member is cancelled the group is shed unevaluated.
    sched::CancelSource other_source;
    other_source.Cancel();
    ServiceRequest doomed_too{handle, request};
    doomed_too.request.options.cancel = other_source.token();
    decisions = service.SubmitBatch({doomed, doomed_too});
    EXPECT_EQ(decisions[0].status.code(), StatusCode::kCancelled);
    EXPECT_EQ(decisions[1].status.code(), StatusCode::kCancelled);
    ASSERT_OK_AND_ASSIGN(after, service.counters(handle));
    EXPECT_EQ(after.cache_misses, 1u) << "shed group was evaluated";
    EXPECT_EQ(after.cancelled, 3u);
  }
}

TEST(SchedServiceTest, ReentrantPullStreamDoesNotDeadlock) {
  // A completion callback (on the pool's only worker) submits a pull
  // stream and drains it: the nested batch runs inline, publishing every
  // decision before this thread — its only consumer — starts draining.
  AuditFixture fx = MakeAuditFixture();
  ServiceOptions options;
  options.num_workers = 1;
  CompletenessService service(options);
  Result<SettingHandle> handle = service.RegisterSetting(fx.setting);
  ASSERT_TRUE(handle.ok());

  DecisionRequest trigger;
  trigger.kind = ProblemKind::kRcqpWeak;
  trigger.query = fx.by_patient;

  std::promise<size_t> streamed;
  service.SubmitAsync(
      ServiceRequest{*handle, trigger}, [&](Decision) {
        std::vector<ServiceRequest> nested;
        for (const DecisionRequest& request : DistinctWorkload(fx)) {
          nested.push_back(ServiceRequest{*handle, request});
        }
        DecisionStream stream;
        service.SubmitStream(nested, &stream);
        size_t count = 0;
        StreamedDecision item;
        while (stream.Next(&item)) ++count;
        streamed.set_value(count);
      });
  std::future<size_t> future = streamed.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "re-entrant stream deadlocked the worker";
  EXPECT_EQ(future.get(), 8u);
}

TEST(SchedServiceTest, StreamWithBlockingQuotaStaysLive) {
  // A pull stream plus a blocking in-queue quota: the submitting thread —
  // the eventual consumer — waits in admission for the workers, which
  // must keep publishing into the stream meanwhile rather than wedging.
  AuditFixture fx = MakeAuditFixture();
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  ASSERT_EQ(options.overload, sched::OverloadPolicy::kBlock);
  CompletenessService service(options);
  ShardOptions shard_options;
  shard_options.max_queue = 2;
  Result<SettingHandle> handle =
      service.RegisterSetting(fx.setting, shard_options);
  ASSERT_TRUE(handle.ok());

  std::future<size_t> done = std::async(std::launch::async, [&] {
    std::vector<ServiceRequest> requests;
    for (const DecisionRequest& request : DistinctWorkload(fx)) {
      requests.push_back(ServiceRequest{*handle, request});
    }
    DecisionStream stream;
    service.SubmitStream(requests, &stream);  // single-threaded consumer
    size_t count = 0;
    StreamedDecision item;
    while (stream.Next(&item)) ++count;
    return count;
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "stream + blocking quota deadlocked the submission";
  EXPECT_EQ(done.get(), 8u);
}

/// Polls `service` until `handle`'s shard shows at least `misses` claimed
/// evaluations — i.e. a worker has started deciding (the miss is counted
/// under the shard lock when the evaluation is claimed, before it runs).
void WaitForEvaluationStart(CompletenessService& service, SettingHandle handle,
                            uint64_t misses = 1) {
  for (int i = 0; i < 2000; ++i) {
    Result<EngineCounters> counters = service.counters(handle);
    ASSERT_TRUE(counters.ok());
    if (counters->cache_misses >= misses) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "no evaluation started";
}

void ExpectPartitionHolds(const EngineCounters& counters) {
  EXPECT_EQ(counters.requests,
            counters.cache_hits + counters.cache_misses + counters.rejected +
                counters.expired + counters.cancelled)
      << counters.ToString();
}

TEST(SchedServiceTest, RunningEvaluationAbortsOnMidRunDeadline) {
  // The headline bugfix: a deadline that expires while the decider is
  // ALREADY RUNNING must abort it at a checkpoint — before this PR the
  // evaluation ran to its (here unreachable within the deadline) budget.
  testing::SlowFixture fx = testing::MakeSlowFixture(/*master_rows=*/40,
                                                     /*vars=*/6);
  ServiceOptions options;
  options.num_workers = 1;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  ServiceRequest request;
  request.setting = handle;
  request.request = fx.Request();
  request.request.options.max_steps = 20'000'000;  // ≫ reachable in 250ms
  request.request.options.deadline = sched::DeadlineAfterMs(250);
  std::future<Decision> future = service.SubmitAsync(std::move(request));

  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "mid-run deadline did not abort the evaluation";
  Decision decision = future.get();
  EXPECT_EQ(decision.status.code(), StatusCode::kDeadlineExceeded)
      << decision.status.ToString();
  EXPECT_FALSE(decision.from_cache);
  EXPECT_GT(decision.stats.valuations, 0u)
      << "no partial stats from the aborted run";

  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.expired, 1u);
  EXPECT_EQ(counters.cache_misses, 0u)
      << "the aborted claim was not re-filed as expired";
  EXPECT_EQ(counters.shed_running, 1u);
  EXPECT_GT(counters.aborted_steps, 0u);
  ExpectPartitionHolds(counters);

  // Never cached: resubmitting the identical request must evaluate again —
  // a second mid-run abort (a fresh shed_running increment, no from_cache)
  // proves the first abort was not replayed from the LRU.
  ServiceRequest again;
  again.setting = handle;
  again.request = fx.Request();
  again.request.options.max_steps = 20'000'000;
  again.request.options.deadline = sched::DeadlineAfterMs(250);
  Decision retry = service.Decide(again);
  EXPECT_EQ(retry.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(retry.from_cache);
  ASSERT_OK_AND_ASSIGN(after, service.counters(handle));
  EXPECT_EQ(after.shed_running, 2u) << "the abort was served from the cache";
}

TEST(SchedServiceTest, RunningFlightGroupAbortsOnlyWhenLastWaiterCancels) {
  // Two waiters coalesce on one slow evaluation. The first Cancel() must
  // NOT stop the running computation; the second (last) one must.
  testing::SlowFixture fx = testing::MakeSlowFixture(/*master_rows=*/40,
                                                     /*vars=*/6);
  ServiceOptions options;
  options.num_workers = 1;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest slow = fx.Request();
  slow.options.max_steps = 20'000'000;
  sched::CancelSource first, second;
  ServiceRequest a{handle, slow};
  a.request.options.cancel = first.token();
  ServiceRequest b{handle, slow};
  b.request.options.cancel = second.token();
  std::future<Decision> future_a = service.SubmitAsync(std::move(a));
  std::future<Decision> future_b = service.SubmitAsync(std::move(b));

  WaitForEvaluationStart(service, handle);
  first.Cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(future_b.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout)
      << "a single waiter's cancel aborted a group another waiter needs";

  second.Cancel();
  ASSERT_EQ(future_a.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the last waiter's cancel did not abort the running evaluation";
  ASSERT_EQ(future_b.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(future_a.get().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(future_b.get().status.code(), StatusCode::kCancelled);

  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.cancelled, 2u);
  EXPECT_EQ(counters.cache_misses, 0u);
  EXPECT_EQ(counters.shed_running, 1u);
  ExpectPartitionHolds(counters);
}

TEST(SchedServiceTest, LateDeadlinelessJoinerLiftsARunningDeadline) {
  // Deadline symmetry with cancellation: a waiter that joins an
  // already-running evaluation without a deadline must LIFT the run's
  // deadline — the original waiter's deadline expiring mid-run must not
  // rob the live joiner of its answer.
  testing::SlowFixture fx = testing::MakeSlowFixture(/*master_rows=*/40,
                                                     /*vars=*/3);
  ServiceOptions options;
  options.num_workers = 1;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest slow = fx.Request();  // ~64^3 steps: slow but finite
  ServiceRequest deadlined{handle, slow};
  deadlined.request.options.deadline = sched::DeadlineAfterMs(400);
  std::future<Decision> first = service.SubmitAsync(std::move(deadlined));
  WaitForEvaluationStart(service, handle);
  // Joins the RUNNING group with no deadline of its own.
  std::future<Decision> second =
      service.SubmitAsync(ServiceRequest{handle, slow});

  Decision lifted = second.get();
  EXPECT_TRUE(lifted.status.ok())
      << "the run aborted on the first waiter's deadline despite a live "
         "deadline-less joiner: "
      << lifted.status.ToString();
  // The original waiter receives the (possibly late) answer too.
  EXPECT_TRUE(first.get().status.ok());
  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.shed_running, 0u);
  ExpectPartitionHolds(counters);
}

TEST(SchedServiceTest, SubmitStreamCancellationStopsProducingPromptly) {
  // A streamed batch of slow requests under one cancel source: cancelling
  // mid-drain must abort the running evaluation AND shed everything still
  // queued, so the stream finishes promptly with kCancelled decisions
  // instead of grinding through the remaining searches.
  testing::SlowFixture fx = testing::MakeSlowFixture(/*master_rows=*/40,
                                                     /*vars=*/6);
  ServiceOptions options;
  options.num_workers = 1;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  sched::CancelSource source;
  std::vector<ServiceRequest> requests;
  for (ProblemKind kind :
       {ProblemKind::kRcdpStrong, ProblemKind::kRcdpViable,
        ProblemKind::kMinpStrong, ProblemKind::kMinpViable}) {
    ServiceRequest request;
    request.setting = handle;
    request.request = fx.Request(kind);
    request.request.options.max_steps = 20'000'000;
    request.request.options.cancel = source.token();
    requests.push_back(std::move(request));
  }

  DecisionStream stream;
  service.SubmitStream(requests, &stream);
  WaitForEvaluationStart(service, handle);
  source.Cancel();

  std::future<std::vector<StatusCode>> drained =
      std::async(std::launch::async, [&stream] {
        std::vector<StatusCode> codes;
        StreamedDecision item;
        while (stream.Next(&item)) codes.push_back(item.decision.status.code());
        return codes;
      });
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "cancelled stream kept producing decisions";
  std::vector<StatusCode> codes = drained.get();
  ASSERT_EQ(codes.size(), requests.size());
  for (StatusCode code : codes) EXPECT_EQ(code, StatusCode::kCancelled);

  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.cancelled, requests.size());
  ExpectPartitionHolds(counters);
}

TEST(SchedServiceTest, StressMixedTrafficKeepsCounterInvariant) {
  // High worker/tenant counts (scaled up further under RELCOMP_SCHED_STRESS):
  // several tenants submit async + batch + stream traffic concurrently with
  // mixed priorities, dead deadlines, and cancellations; afterwards every
  // shard must satisfy
  //   requests == hits + misses + rejected + expired + cancelled
  // and the per-shard sum must equal TotalCounters().
  const bool big = std::getenv("RELCOMP_SCHED_STRESS") != nullptr;
  const size_t kTenants = big ? 6 : 3;
  const size_t kThreads = big ? 8 : 4;
  const size_t kRounds = big ? 40 : 12;

  ServiceOptions options;
  options.num_workers = big ? 8 : 4;
  options.cache_capacity = 64;
  options.policy = sched::SchedPolicy::kFairShare;
  CompletenessService service(options);

  std::vector<AuditFixture> fixtures;
  std::vector<SettingHandle> handles;
  for (size_t t = 0; t < kTenants; ++t) {
    fixtures.push_back(MakeAuditFixture(static_cast<int>(t)));
    ShardOptions shard_options;
    shard_options.weight = static_cast<uint32_t>(1 + t % 4);
    Result<SettingHandle> handle =
        service.RegisterSetting(fixtures.back().setting, shard_options);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }

  std::vector<std::thread> threads;
  for (size_t thread_id = 0; thread_id < kThreads; ++thread_id) {
    threads.emplace_back([&, thread_id] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t t = (thread_id + round) % kTenants;
        std::vector<DecisionRequest> workload = DistinctWorkload(fixtures[t]);
        switch ((thread_id + round) % 4) {
          case 0: {  // async with mixed priority and occasional cancels
            sched::CancelSource source;
            std::vector<std::future<Decision>> futures;
            for (size_t i = 0; i < workload.size(); ++i) {
              ServiceRequest request;
              request.setting = handles[t];
              request.request = workload[i];
              request.priority =
                  static_cast<sched::Priority>(i % sched::kNumPriorities);
              if (i % 3 == 0) request.request.options.cancel = source.token();
              futures.push_back(service.SubmitAsync(std::move(request)));
            }
            if (round % 2 == 0) source.Cancel();
            for (std::future<Decision>& future : futures) future.get();
            break;
          }
          case 1: {  // sync batch with duplicates
            std::vector<ServiceRequest> batch;
            for (const DecisionRequest& r : workload) {
              batch.push_back(ServiceRequest{handles[t], r});
            }
            batch.push_back(ServiceRequest{handles[t], workload[0]});
            batch.push_back(ServiceRequest{handles[t], workload[0]});
            service.SubmitBatch(batch);
            break;
          }
          case 2: {  // stream
            std::vector<ServiceRequest> requests;
            for (const DecisionRequest& r : workload) {
              requests.push_back(ServiceRequest{handles[t], r});
            }
            DecisionStream stream;
            service.SubmitStream(requests, &stream);
            size_t seen = 0;
            stream.Drain([&seen](StreamedDecision) { ++seen; });
            EXPECT_EQ(seen, requests.size());
            break;
          }
          case 3: {  // expired deadlines + plain Decides
            ServiceRequest dead;
            dead.setting = handles[t];
            dead.request = workload[0];
            dead.request.options.deadline =
                sched::Clock::now() - std::chrono::milliseconds(5);
            service.SubmitAsync(std::move(dead)).get();
            service.Decide({handles[t], workload[1 % workload.size()]});
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EngineCounters summed;
  std::set<uint64_t> seen;  // fixtures may dedupe onto a shared shard
  for (SettingHandle handle : handles) {
    if (!seen.insert(handle.id).second) continue;
    Result<EngineCounters> counters = service.counters(handle);
    ASSERT_TRUE(counters.ok());
    EXPECT_EQ(counters->requests,
              counters->cache_hits + counters->cache_misses +
                  counters->rejected + counters->expired +
                  counters->cancelled)
        << "shard " << handle.id << ": " << counters->ToString();
    summed += *counters;
  }
  EXPECT_EQ(summed.ToString(), service.TotalCounters().ToString());
}

}  // namespace
}  // namespace relcomp
