// CompletenessService: multi-setting registration / dedup / release,
// interleaved cross-setting batches vs direct evaluation, async futures
// and completion callbacks vs the synchronous path, dedup-aware batch
// coalescing (exactly one miss), request-level cancellation and deadlines
// as per-member interest, cache behavior and counters, and witness
// propagation through the service on the known-incomplete Fig. 1
// acquisition instance.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/rcdp.h"
#include "reductions/examples_fig1.h"
#include "service/service.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::S;

using testing::AuditFixture;
using testing::MakeAuditFixture;

/// Every problem kind × both audit queries for one fixture.
std::vector<DecisionRequest> AuditWorkload(const AuditFixture& fx) {
  std::vector<DecisionRequest> requests;
  for (const Query* q : {&fx.by_patient, &fx.all_cities}) {
    for (ProblemKind kind : AllProblemKinds()) {
      DecisionRequest request;
      request.kind = kind;
      request.query = *q;
      request.cinstance = fx.audited;
      request.rcqp_max_tuples = 2;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

ServiceOptions MakeOptions(size_t workers, size_t cache) {
  ServiceOptions options;
  options.num_workers = workers;
  options.cache_capacity = cache;
  return options;
}

/// `requests`, all routed to `handle`.
std::vector<ServiceRequest> Routed(
    SettingHandle handle, const std::vector<DecisionRequest>& requests) {
  std::vector<ServiceRequest> routed;
  for (const DecisionRequest& request : requests) {
    routed.push_back(ServiceRequest{handle, request});
  }
  return routed;
}

/// The reference verdicts: every request evaluated directly against the
/// prepared setting, with no service in between.
std::vector<Decision> EvaluateDirectly(
    const PartiallyClosedSetting& setting,
    const std::vector<DecisionRequest>& requests) {
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(setting);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  std::vector<Decision> decisions;
  for (const DecisionRequest& request : requests) {
    decisions.push_back(EvaluateRequest(request, *prepared));
  }
  return decisions;
}

void ExpectSameDecisions(const std::vector<Decision>& a,
                         const std::vector<Decision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status.code(), b[i].status.code())
        << "request " << i << ": " << a[i].status.ToString() << " vs "
        << b[i].status.ToString();
    if (a[i].status.ok() && b[i].status.ok()) {
      EXPECT_EQ(a[i].answer, b[i].answer) << "request " << i;
    }
  }
}

TEST(ServiceTest, InterleavedBatchesMatchIndependentEngines) {
  AuditFixture fx_a = MakeAuditFixture(0);
  AuditFixture fx_b = MakeAuditFixture(1);
  std::vector<DecisionRequest> workload_a = AuditWorkload(fx_a);
  std::vector<DecisionRequest> workload_b = AuditWorkload(fx_b);

  // Reference: each setting's workload evaluated directly.
  std::vector<Decision> expected_a = EvaluateDirectly(fx_a.setting, workload_a);
  std::vector<Decision> expected_b = EvaluateDirectly(fx_b.setting, workload_b);

  // One service hosting both settings; the two workloads interleaved
  // request by request in a single batch.
  CompletenessService service(MakeOptions(/*workers=*/4, /*cache=*/256));
  ASSERT_OK_AND_ASSIGN(handle_a, service.RegisterSetting(fx_a.setting));
  ASSERT_OK_AND_ASSIGN(handle_b, service.RegisterSetting(fx_b.setting));
  EXPECT_NE(handle_a, handle_b);
  EXPECT_EQ(service.num_settings(), 2u);

  std::vector<ServiceRequest> interleaved;
  ASSERT_EQ(workload_a.size(), workload_b.size());
  for (size_t i = 0; i < workload_a.size(); ++i) {
    interleaved.push_back(ServiceRequest{handle_a, workload_a[i]});
    interleaved.push_back(ServiceRequest{handle_b, workload_b[i]});
  }
  std::vector<Decision> decisions = service.SubmitBatch(interleaved);

  std::vector<Decision> got_a, got_b;
  for (size_t i = 0; i < decisions.size(); i += 2) {
    got_a.push_back(decisions[i]);
    got_b.push_back(decisions[i + 1]);
  }
  ExpectSameDecisions(expected_a, got_a);
  ExpectSameDecisions(expected_b, got_b);

  ASSERT_OK_AND_ASSIGN(counters_a, service.counters(handle_a));
  ASSERT_OK_AND_ASSIGN(counters_b, service.counters(handle_b));
  EXPECT_EQ(counters_a.requests, workload_a.size());
  EXPECT_EQ(counters_b.requests, workload_b.size());
  EXPECT_EQ(counters_a.errors, 0u);
  EXPECT_EQ(counters_b.errors, 0u);
  EngineCounters total = service.TotalCounters();
  EXPECT_EQ(total.requests, workload_a.size() + workload_b.size());
}

TEST(ServiceTest, RegisteringIdenticalSettingReturnsSameHandle) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(first, service.RegisterSetting(fx.setting));
  // A byte-identical rebuild of the setting fingerprints identically and
  // dedups onto the same shard.
  ASSERT_OK_AND_ASSIGN(second,
                       service.RegisterSetting(MakeAuditFixture().setting));
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.num_settings(), 1u);

  // A genuinely different setting gets its own handle.
  ASSERT_OK_AND_ASSIGN(other,
                       service.RegisterSetting(MakeAuditFixture(1).setting));
  EXPECT_NE(first, other);
  EXPECT_EQ(service.num_settings(), 2u);

  // The deduped shard shares one cache: the same request decided via either
  // registration is a hit the second time.
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;
  Decision miss = service.Decide({first, request});
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  Decision hit = service.Decide({second, request});
  EXPECT_TRUE(hit.from_cache);
}

TEST(ServiceTest, TypedTwinsGetTheirOwnVerdictsAndShards) {
  // R(a), the master M(a) and the CC π_a R ⊆ M, with Dm = {M(master)}.
  auto make_setting = [](Value master) {
    PartiallyClosedSetting setting;
    setting.schema.AddRelation(
        RelationSchema("R", {Attribute{"a", Domain::Infinite()}}));
    setting.master_schema.AddRelation(
        RelationSchema("M", {Attribute{"a", Domain::Infinite()}}));
    setting.dm = Instance(setting.master_schema);
    setting.dm.AddTuple("M", {master});
    setting.ccs.emplace_back(
        "r_in_m",
        ConjunctiveQuery({CTerm(VarId{0})}, {RelAtom{"R", {VarId{0}}}}), "M",
        std::vector<int>{0});
    return setting;
  };
  const PartiallyClosedSetting setting = make_setting(Value::Int(1));
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));

  // T = {R(1)} and T = {R("1")} print alike; Q(x) :- R(x).
  DecisionRequest int_request;
  int_request.kind = ProblemKind::kRcdpStrong;
  int_request.query = Query::Cq(
      ConjunctiveQuery({CTerm(VarId{0})}, {RelAtom{"R", {VarId{0}}}}));
  int_request.cinstance = CInstance(setting.schema);
  int_request.cinstance.at("R").AddRow({Cell(Value::Int(1))});
  DecisionRequest sym_request = int_request;
  sym_request.cinstance = CInstance(setting.schema);
  sym_request.cinstance.at("R").AddRow({Cell(S("1"))});
  ASSERT_EQ(int_request.cinstance.ToString(), sym_request.cinstance.ToString());

  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(direct_int, RcdpStrong(int_request.query,
                                              int_request.cinstance, prepared));
  ASSERT_OK_AND_ASSIGN(direct_sym, RcdpStrong(sym_request.query,
                                              sym_request.cinstance, prepared));
  const Decision on_int = service.Decide({handle, int_request});
  const Decision on_sym = service.Decide({handle, sym_request});
  ASSERT_TRUE(on_int.status.ok()) << on_int.status.ToString();
  ASSERT_TRUE(on_sym.status.ok()) << on_sym.status.ToString();
  EXPECT_TRUE(on_int.answer);
  EXPECT_EQ(on_int.answer, direct_int);
  EXPECT_FALSE(on_sym.from_cache);
  EXPECT_FALSE(on_sym.answer);
  EXPECT_EQ(on_sym.answer, direct_sym);

  // Dm = {M(1)} and Dm = {M("1")} print alike too, yet are two settings.
  ASSERT_OK_AND_ASSIGN(twin,
                       service.RegisterSetting(make_setting(S("1"))));
  EXPECT_NE(twin, handle);
  EXPECT_EQ(service.num_settings(), 2u);
}

TEST(ServiceTest, ReleaseSettingRefcountsAndEvicts) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
  ASSERT_OK_AND_ASSIGN(again, service.RegisterSetting(fx.setting));
  ASSERT_EQ(handle, again);

  // Two registrations: the first release keeps the shard alive.
  EXPECT_OK(service.ReleaseSetting(handle));
  EXPECT_EQ(service.num_settings(), 1u);
  DecisionRequest request;
  request.kind = ProblemKind::kRcqpWeak;
  request.query = fx.by_patient;
  EXPECT_TRUE(service.Decide({handle, request}).status.ok());

  // The second release evicts; the handle goes dark, errors are graceful.
  EXPECT_OK(service.ReleaseSetting(handle));
  EXPECT_EQ(service.num_settings(), 0u);
  EXPECT_EQ(service.ReleaseSetting(handle).code(), StatusCode::kNotFound);
  Decision gone = service.Decide({handle, request});
  EXPECT_EQ(gone.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(service.counters(handle).ok());

  // Re-registering after eviction issues a fresh handle.
  ASSERT_OK_AND_ASSIGN(fresh, service.RegisterSetting(fx.setting));
  EXPECT_NE(fresh, handle);
}

TEST(ServiceTest, InvalidHandleYieldsErrorDecisions) {
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/16));
  SettingHandle bogus{42};
  DecisionRequest request;

  EXPECT_EQ(service.Decide({bogus, request}).status.code(),
            StatusCode::kNotFound);
  std::vector<Decision> batch =
      service.SubmitBatch({ServiceRequest{bogus, request},
                           ServiceRequest{SettingHandle{}, request}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(batch[1].status.code(), StatusCode::kNotFound);
  Decision async = service.SubmitAsync(ServiceRequest{bogus, request}).get();
  EXPECT_EQ(async.status.code(), StatusCode::kNotFound);
}

TEST(ServiceTest, AsyncFuturesMatchSynchronousBatch) {
  AuditFixture fx = MakeAuditFixture();
  std::vector<DecisionRequest> workload = AuditWorkload(fx);

  for (size_t workers : {1u, 4u}) {
    CompletenessService service(MakeOptions(workers, /*cache=*/256));
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

    // Submit everything async first, then compare with the workload
    // evaluated directly.
    std::vector<std::future<Decision>> futures;
    futures.reserve(workload.size());
    for (const DecisionRequest& request : workload) {
      futures.push_back(service.SubmitAsync(ServiceRequest{handle, request}));
    }
    std::vector<Decision> async_decisions;
    async_decisions.reserve(futures.size());
    for (std::future<Decision>& future : futures) {
      async_decisions.push_back(future.get());
    }

    ExpectSameDecisions(EvaluateDirectly(fx.setting, workload),
                        async_decisions);
  }
}

TEST(ServiceTest, AsyncCompletionCallbackDelivers) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;

  std::promise<Decision> delivered;
  service.SubmitAsync(ServiceRequest{handle, request},
                      [&delivered](Decision decision) {
                        delivered.set_value(std::move(decision));
                      });
  Decision decision = delivered.get_future().get();
  ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
  EXPECT_EQ(decision.answer, service.Decide({handle, request}).answer);
}

TEST(ServiceTest, ReentrantSubmissionFromCallbackDoesNotDeadlock) {
  // One worker, and the completion callback itself submits more work: the
  // nested batch must run inline on the worker (parking on the queue this
  // thread is the only drainer of would deadlock the pool forever).
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/1, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest first;
  first.kind = ProblemKind::kRcdpStrong;
  first.query = fx.by_patient;
  first.cinstance = fx.audited;
  DecisionRequest second = first;
  second.query = fx.all_cities;

  std::promise<std::pair<Decision, Decision>> done;
  service.SubmitAsync(
      ServiceRequest{handle, first},
      [&service, &done, handle, second](Decision outer) {
        std::vector<Decision> nested =
            service.SubmitBatch({ServiceRequest{handle, second}});
        done.set_value({std::move(outer), std::move(nested[0])});
      });
  std::future<std::pair<Decision, Decision>> future = done.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "re-entrant submission deadlocked the pool";
  auto [outer, nested] = future.get();
  ASSERT_TRUE(outer.status.ok()) << outer.status.ToString();
  ASSERT_TRUE(nested.status.ok()) << nested.status.ToString();
  EXPECT_EQ(nested.answer, service.Decide({handle, second}).answer);
}

TEST(ServiceTest, CoalescedDuplicateBatchRecordsOneMiss) {
  AuditFixture fx = MakeAuditFixture();
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;

  for (size_t workers : {0u, 4u}) {
    CompletenessService service(MakeOptions(workers, /*cache=*/64));
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

    std::vector<ServiceRequest> batch(8, ServiceRequest{handle, request});
    std::vector<Decision> decisions = service.SubmitBatch(batch);
    ASSERT_EQ(decisions.size(), 8u);
    size_t coalesced = 0;
    for (size_t i = 0; i < decisions.size(); ++i) {
      ASSERT_TRUE(decisions[i].status.ok());
      EXPECT_EQ(decisions[i].answer, decisions[0].answer);
      if (decisions[i].from_cache) {
        ++coalesced;
        EXPECT_NE(decisions[i].note.find("coalesced"), std::string::npos)
            << decisions[i].note;
      }
    }
    EXPECT_EQ(coalesced, 7u);

    ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
    EXPECT_EQ(counters.requests, 8u);
    EXPECT_EQ(counters.cache_misses, 1u) << "workers=" << workers;
    EXPECT_EQ(counters.cache_hits, 7u);
    EXPECT_EQ(counters.coalesced, 7u);
  }
}

TEST(ServiceTest, OnlyTheEvaluatingRequestCarriesTheSearchProfile) {
  // A decision's profile attributes the evaluation that produced it: a
  // cache hit, a coalesced copy and a hit restored from a snapshot carry
  // none, so the cache holds no profile it does not weigh.
  const std::string path = ::testing::TempDir() + "relcomp_profiles.rccs";
  AuditFixture fx = MakeAuditFixture();
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;
  {
    CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
    const Decision miss = service.Decide(ServiceRequest{handle, request});
    ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
    EXPECT_FALSE(miss.from_cache);
    ASSERT_NE(miss.profile, nullptr);
    EXPECT_TRUE(miss.profile->finished());
    const Decision hit = service.Decide(ServiceRequest{handle, request});
    EXPECT_TRUE(hit.from_cache);
    EXPECT_EQ(hit.profile, nullptr);
    EXPECT_OK(service.SaveCaches(path));
  }
  for (size_t workers : {0u, 2u}) {
    CompletenessService service(MakeOptions(workers, /*cache=*/64));
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
    const std::vector<Decision> decisions = service.SubmitBatch(
        std::vector<ServiceRequest>(2, ServiceRequest{handle, request}));
    ASSERT_EQ(decisions.size(), 2u);
    size_t profiled = 0;
    for (const Decision& decision : decisions) {
      ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
      EXPECT_EQ(decision.profile != nullptr, !decision.from_cache)
          << "workers=" << workers << ": " << decision.note;
      if (decision.profile != nullptr) ++profiled;
    }
    EXPECT_EQ(profiled, 1u) << "workers=" << workers;
  }
  {
    CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));
    ASSERT_OK_AND_ASSIGN(accepted, service.LoadCaches(path));
    EXPECT_EQ(accepted, 1u);
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
    const Decision restored = service.Decide(ServiceRequest{handle, request});
    EXPECT_TRUE(restored.from_cache);
    EXPECT_EQ(restored.profile, nullptr);
  }
}

TEST(ServiceTest, CoalescingWorksWithMemoizationDisabled) {
  AuditFixture fx = MakeAuditFixture();
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;

  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/0));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
  std::vector<Decision> decisions =
      service.SubmitBatch(std::vector<ServiceRequest>(4, {handle, request}));
  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  // No LRU, but batch dedup still collapses the four to one computation.
  EXPECT_EQ(counters.cache_misses, 1u);
  EXPECT_EQ(counters.coalesced, 3u);
  for (const Decision& decision : decisions) {
    EXPECT_EQ(decision.answer, decisions[0].answer);
  }
}

TEST(ServiceTest, WitnessPropagatesThroughService) {
  // Example 2.2 / Fig. 1 acquisition master: the ground instance can never
  // be complete for Q3 (diabetics born 2000, any city).
  PatientsFixture fx = MakePatientsFixture();
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.acquisition));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.q3;
  request.cinstance = CInstance::FromInstance(fx.ground);
  request.want_witness = true;

  Decision decision = service.Decide({handle, request});
  ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
  EXPECT_FALSE(decision.answer);
  ASSERT_NE(decision.witness, nullptr);
  EXPECT_FALSE(decision.witness->note.empty());

  // The cross-check: the witness matches what the low-level decider reports.
  CompletenessWitness direct;
  const PreparedSetting acquisition = testing::MustPrepare(fx.acquisition);
  ASSERT_OK_AND_ASSIGN(answer, RcdpStrong(fx.q3, request.cinstance, acquisition,
                                          {}, nullptr, &direct));
  EXPECT_FALSE(answer);
  EXPECT_EQ(decision.witness->note, direct.note);

  // Cached replays keep carrying the witness.
  Decision cached = service.Decide({handle, request});
  EXPECT_TRUE(cached.from_cache);
  ASSERT_NE(cached.witness, nullptr);
  EXPECT_EQ(cached.witness->note, direct.note);

  // Witness-less runs are keyed separately and stay lean.
  request.want_witness = false;
  Decision lean = service.Decide({handle, request});
  EXPECT_FALSE(lean.from_cache);
  EXPECT_EQ(lean.witness, nullptr);
}

TEST(ServiceTest, ViableWitnessReportsCompleteWorld) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/0));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpViable;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;
  request.want_witness = true;
  Decision decision = service.Decide({handle, request});
  ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
  if (decision.answer) {
    ASSERT_NE(decision.witness, nullptr);
    EXPECT_NE(decision.witness->note.find("complete world"),
              std::string::npos);
  }
}

TEST(ServiceTest, ConcurrentIdenticalAsyncRequestsCoalesce) {
  // A slow-ish request submitted many times concurrently: the in-flight
  // table must collapse the duplicates that overlap, and every future must
  // resolve to the same answer. (Exact coalesced counts are scheduling-
  // dependent; the invariant is hits + misses == requests and one miss at
  // minimum.)
  PatientsFixture fx = MakePatientsFixture();
  CompletenessService service(MakeOptions(/*workers=*/4, /*cache=*/0));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.q1;
  request.cinstance = fx.ctable;

  constexpr size_t kSubmissions = 16;
  std::vector<std::future<Decision>> futures;
  for (size_t i = 0; i < kSubmissions; ++i) {
    futures.push_back(service.SubmitAsync(ServiceRequest{handle, request}));
  }
  bool expected = false;
  for (size_t i = 0; i < futures.size(); ++i) {
    Decision decision = futures[i].get();
    ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
    if (i == 0) {
      expected = decision.answer;
    } else {
      EXPECT_EQ(decision.answer, expected);
    }
  }
  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, kSubmissions);
  EXPECT_EQ(counters.cache_hits + counters.cache_misses, kSubmissions);
  EXPECT_GE(counters.cache_misses, 1u);
  EXPECT_EQ(counters.coalesced, counters.cache_hits);
}

TEST(ServiceTest, PerSettingCacheCapacityOverride) {
  // ShardOptions::cache_capacity overrides the service-wide default per
  // setting: a capacity-1 shard thrashes between two alternating requests
  // while a default shard keeps both resident.
  AuditFixture tiny_fx = MakeAuditFixture(0);
  AuditFixture roomy_fx = MakeAuditFixture(1);
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/1024));
  ShardOptions tiny_options;
  tiny_options.cache_capacity = 1;
  ASSERT_OK_AND_ASSIGN(tiny, service.RegisterSetting(tiny_fx.setting,
                                                     tiny_options));
  ASSERT_OK_AND_ASSIGN(roomy, service.RegisterSetting(roomy_fx.setting));

  ASSERT_OK_AND_ASSIGN(tiny_resolved, service.shard_options(tiny));
  ASSERT_OK_AND_ASSIGN(roomy_resolved, service.shard_options(roomy));
  EXPECT_EQ(tiny_resolved.cache_capacity, 1u);
  EXPECT_EQ(roomy_resolved.cache_capacity, 1024u);

  auto alternate = [&](const AuditFixture& fx, SettingHandle handle) {
    DecisionRequest first;
    first.kind = ProblemKind::kRcdpStrong;
    first.query = fx.by_patient;
    first.cinstance = fx.audited;
    DecisionRequest second = first;
    second.query = fx.all_cities;
    // first, second, first, second: with capacity 1 every access evicts
    // the other entry — four misses; with room for both, two hits.
    for (int round = 0; round < 2; ++round) {
      service.Decide({handle, first});
      service.Decide({handle, second});
    }
  };
  alternate(tiny_fx, tiny);
  alternate(roomy_fx, roomy);

  ASSERT_OK_AND_ASSIGN(tiny_counters, service.counters(tiny));
  ASSERT_OK_AND_ASSIGN(roomy_counters, service.counters(roomy));
  EXPECT_EQ(tiny_counters.cache_misses, 4u);
  EXPECT_EQ(tiny_counters.cache_hits, 0u);
  EXPECT_EQ(roomy_counters.cache_misses, 2u);
  EXPECT_EQ(roomy_counters.cache_hits, 2u);
}

TEST(ServiceTest, TotalCountersEqualsPerShardSumAfterMixedTraffic) {
  // The counter-drift regression: after sync, async, batch (with
  // duplicates), stream, shed, and cancelled traffic across several
  // shards, the field-wise sum of every live shard's counters must equal
  // TotalCounters() exactly, and each shard's outcome buckets must
  // partition its requests.
  AuditFixture fx_a = MakeAuditFixture(0);
  AuditFixture fx_b = MakeAuditFixture(1);
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle_a, service.RegisterSetting(fx_a.setting));
  ASSERT_OK_AND_ASSIGN(handle_b, service.RegisterSetting(fx_b.setting));

  std::vector<DecisionRequest> workload_a = AuditWorkload(fx_a);
  std::vector<DecisionRequest> workload_b = AuditWorkload(fx_b);

  // Sync + batch with duplicates.
  service.Decide({handle_a, workload_a[0]});
  std::vector<ServiceRequest> dup_batch = Routed(handle_a, workload_a);
  dup_batch.push_back(ServiceRequest{handle_a, workload_a[0]});
  dup_batch.push_back(ServiceRequest{handle_a, workload_a[0]});
  service.SubmitBatch(dup_batch);

  // Async futures on the other shard.
  std::vector<std::future<Decision>> futures;
  for (const DecisionRequest& request : workload_b) {
    futures.push_back(service.SubmitAsync(ServiceRequest{handle_b, request}));
  }
  for (std::future<Decision>& future : futures) future.get();

  // Stream across both shards.
  std::vector<ServiceRequest> interleaved;
  for (size_t i = 0; i < workload_a.size(); ++i) {
    interleaved.push_back(ServiceRequest{handle_a, workload_a[i]});
    interleaved.push_back(ServiceRequest{handle_b, workload_b[i]});
  }
  DecisionStream stream;
  service.SubmitStream(interleaved, &stream);
  size_t streamed = 0;
  stream.Drain([&streamed](StreamedDecision) { ++streamed; });
  EXPECT_EQ(streamed, interleaved.size());

  // A cancelled and an expired request.
  sched::CancelSource source;
  source.Cancel();
  ServiceRequest cancelled;
  cancelled.setting = handle_a;
  cancelled.request = workload_a[1];
  cancelled.request.options.cancel = source.token();
  EXPECT_EQ(service.SubmitAsync(std::move(cancelled)).get().status.code(),
            StatusCode::kCancelled);
  ServiceRequest expired;
  expired.setting = handle_b;
  expired.request = workload_b[1];
  expired.request.options.deadline =
      sched::Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(service.SubmitAsync(std::move(expired)).get().status.code(),
            StatusCode::kDeadlineExceeded);

  EngineCounters summed;
  for (SettingHandle handle : {handle_a, handle_b}) {
    ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
    EXPECT_EQ(counters.requests,
              counters.cache_hits + counters.cache_misses + counters.rejected +
                  counters.expired + counters.cancelled)
        << "shard " << handle.id << ": " << counters.ToString();
    summed += counters;
  }
  EXPECT_EQ(summed.ToString(), service.TotalCounters().ToString());
}

TEST(ServiceTest, MaxStepsReachesDecidersPerRequest) {
  // The budget-plumbing bugfix: a request's SearchOptions::max_steps must
  // reach the decider (it once did not, and every service tenant silently
  // ran with the built-in 50M budget).
  // The slow fixture's Mod(T) enumeration has no early exit, so a 1-step
  // budget always exhausts and a few-thousand-step budget always finishes.
  testing::SlowFixture fx = testing::MakeSlowFixture(/*rows=*/8);
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));

  ASSERT_OK_AND_ASSIGN(plain, service.RegisterSetting(fx.setting));
  DecisionRequest tiny = fx.Request();
  tiny.options.max_steps = 1;
  Decision exhausted = service.Decide({plain, tiny});
  EXPECT_EQ(exhausted.status.code(), StatusCode::kResourceExhausted)
      << exhausted.status.ToString();
  EXPECT_TRUE(service.Decide({plain, fx.Request()}).status.ok());
}

TEST(ServiceTest, ExhaustedEvaluationIsNeverCachedAndCountsAsError) {
  // kResourceExhausted is a resource verdict, not an answer: with
  // memoization ON it must not be replayed from the LRU, and the counter
  // partition must stay intact (exhaustions are misses + errors).
  testing::SlowFixture fx = testing::MakeSlowFixture(/*rows=*/8);
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest tiny = fx.Request();
  tiny.options.max_steps = 1;

  Decision first = service.Decide({handle, tiny});
  Decision second = service.Decide({handle, tiny});
  EXPECT_EQ(first.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(second.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(first.from_cache);
  EXPECT_FALSE(second.from_cache) << "an exhausted decision was cached";

  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.cache_misses, 2u);
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.errors, 2u);
  EXPECT_EQ(counters.shed_running, 0u)
      << "budget exhaustion must not masquerade as a mid-run abort";
  EXPECT_EQ(counters.requests,
            counters.cache_hits + counters.cache_misses + counters.rejected +
                counters.expired + counters.cancelled);

  // A definitive verdict for the same query under a workable budget still
  // caches normally afterwards.
  DecisionRequest roomy = tiny;
  roomy.options.max_steps = SearchOptions::kDefaultMaxSteps;
  EXPECT_TRUE(service.Decide({handle, roomy}).status.ok());
  EXPECT_TRUE(service.Decide({handle, roomy}).from_cache);
}

TEST(ServiceTest, CancelledRequestTokenShedsOnEveryFrontDoor) {
  // A request's own already-cancelled options.cancel is its interest: it is
  // shed at admission, with default options, whichever call submits it.
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  sched::CancelSource source;
  source.Cancel();
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;
  request.options.cancel = source.token();

  EXPECT_EQ(service.Decide({handle, request}).status.code(),
            StatusCode::kCancelled);
  EXPECT_EQ(service.SubmitAsync({handle, request}).get().status.code(),
            StatusCode::kCancelled);
  std::vector<Decision> batch = service.SubmitBatch({{handle, request}});
  EXPECT_EQ(batch[0].status.code(), StatusCode::kCancelled);

  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, 3u);
  EXPECT_EQ(counters.cancelled, 3u);
  EXPECT_EQ(counters.cache_misses, 0u) << "a cancelled request was evaluated";
}

TEST(ServiceTest, RequestDeadlineBoundsOnlyItsOwnMember) {
  // Two identical requests in one batch share one run; the one whose own
  // options.deadline already passed is shed alone, and the deadline-less
  // one still gets its verdict.
  AuditFixture fx = MakeAuditFixture();
  for (size_t workers : {0u, 2u}) {
    CompletenessService service(MakeOptions(workers, /*cache=*/64));
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
    DecisionRequest open;
    open.kind = ProblemKind::kRcdpStrong;
    open.query = fx.by_patient;
    open.cinstance = fx.audited;
    DecisionRequest late = open;
    late.options.deadline =
        sched::Clock::now() - std::chrono::milliseconds(1);

    std::vector<Decision> decisions =
        service.SubmitBatch({{handle, late}, {handle, open}});
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_EQ(decisions[0].status.code(), StatusCode::kDeadlineExceeded)
        << decisions[0].status.ToString();
    ASSERT_TRUE(decisions[1].status.ok()) << decisions[1].status.ToString();
    EXPECT_EQ(decisions[1].answer,
              EvaluateDirectly(fx.setting, {open})[0].answer);

    ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
    EXPECT_EQ(counters.expired, 1u);
    EXPECT_EQ(counters.cache_misses, 1u);
  }
}

TEST(ServiceTest, BatchAgreesWithDirectDeciderCalls) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/4, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest strong;
  strong.kind = ProblemKind::kRcdpStrong;
  strong.query = fx.by_patient;
  strong.cinstance = fx.audited;
  DecisionRequest weak = strong;
  weak.kind = ProblemKind::kRcdpWeak;
  weak.query = fx.all_cities;
  std::vector<Decision> decisions =
      service.SubmitBatch({{handle, strong}, {handle, weak}});

  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(direct_strong,
                       RcdpStrong(fx.by_patient, fx.audited, prepared));
  ASSERT_OK_AND_ASSIGN(direct_weak,
                       RcdpWeak(fx.all_cities, fx.audited, prepared));
  ASSERT_TRUE(decisions[0].status.ok()) << decisions[0].status.ToString();
  ASSERT_TRUE(decisions[1].status.ok()) << decisions[1].status.ToString();
  EXPECT_EQ(decisions[0].answer, direct_strong);
  EXPECT_EQ(decisions[1].answer, direct_weak);
}

TEST(ServiceTest, RepeatedQueriesHitTheCache) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;

  Decision first = service.Decide({handle, request});
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.from_cache);
  Decision second = service.Decide({handle, request});
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.answer, first.answer);

  // ClearCache drops the memoized result: the next request recomputes.
  EXPECT_OK(service.ClearCache(handle));
  Decision after_clear = service.Decide({handle, request});
  EXPECT_FALSE(after_clear.from_cache);
  EXPECT_EQ(after_clear.answer, first.answer);
  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, 3u);
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.cache_misses, 2u);
}

TEST(ServiceTest, DeterministicAcrossWorkerCounts) {
  AuditFixture fx = MakeAuditFixture();
  std::vector<DecisionRequest> workload = AuditWorkload(fx);
  // Duplicate the workload so races between identical requests are
  // exercised too.
  std::vector<DecisionRequest> doubled = workload;
  doubled.insert(doubled.end(), workload.begin(), workload.end());

  std::vector<Decision> with_one;
  for (size_t workers : {1u, 4u, 8u}) {
    CompletenessService service(MakeOptions(workers, /*cache=*/128));
    ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
    std::vector<Decision> decisions =
        service.SubmitBatch(Routed(handle, doubled));
    if (workers == 1) {
      with_one = decisions;
    } else {
      ExpectSameDecisions(with_one, decisions);
    }
  }
}

TEST(ServiceTest, RcqpKindsShareVerdictAcrossInstances) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest with_table;
  with_table.kind = ProblemKind::kRcqpWeak;
  with_table.query = fx.by_patient;
  with_table.cinstance = fx.audited;
  DecisionRequest with_empty = with_table;
  with_empty.cinstance = CInstance(fx.setting.schema);

  // RCQP quantifies over all instances, so the audited instance is not part
  // of the memoization key.
  ASSERT_OK_AND_ASSIGN(table_key,
                       service.FingerprintRequest(handle, with_table));
  ASSERT_OK_AND_ASSIGN(empty_key,
                       service.FingerprintRequest(handle, with_empty));
  EXPECT_EQ(table_key, empty_key);
  Decision first = service.Decide({handle, with_table});
  Decision second = service.Decide({handle, with_empty});
  ASSERT_TRUE(first.status.ok());
  EXPECT_TRUE(first.answer);  // Theorem 5.4: monotone ⇒ always true
  EXPECT_TRUE(second.from_cache);
}

TEST(ServiceTest, UndecidableKindsReportErrorsInCounters) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/2, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  // An FO query with negation: RCDP weak is undecidable (Theorem 5.1).
  FoPtr formula = FoFormula::Not(FoFormula::Atom(
      RelAtom{"Visit", {CTerm(VarId{0}), CTerm(VarId{1})}}));
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpWeak;
  request.query =
      Query::Fo(FoQuery({VarId{0}, VarId{1}}, std::move(formula)));
  request.cinstance = fx.audited;

  Decision decision = service.Decide({handle, request});
  EXPECT_EQ(decision.status.code(), StatusCode::kUndecidable);
  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.errors, 1u);
}

TEST(ServiceTest, ProblemKindNamesRoundTrip) {
  EXPECT_EQ(AllProblemKinds().size(), 8u);
  for (ProblemKind kind : AllProblemKinds()) {
    ASSERT_OK_AND_ASSIGN(parsed, ParseProblemKind(ProblemKindName(kind)));
    EXPECT_EQ(parsed, kind);
  }
  Result<ProblemKind> bogus = ParseProblemKind("rcdp-bogus");
  ASSERT_FALSE(bogus.ok());
  // The error names every valid kind, so CLI users see their options.
  for (ProblemKind kind : AllProblemKinds()) {
    EXPECT_NE(bogus.status().message().find(ProblemKindName(kind)),
              std::string::npos)
        << bogus.status().message();
  }
}

TEST(ServiceTest, AdmissionFilterAtCapacityOneProtectsTheHotEntry) {
  // The shard cache's frequency-sketch admission at capacity 1: a ONE-SHOT
  // candidate does not flush a hot resident entry — it must first be seen
  // as often as the victim it would displace.
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/1));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));
  auto decide = [&](const DecisionRequest& request) {
    return service.Decide({handle, request});
  };

  DecisionRequest a;
  a.kind = ProblemKind::kRcdpStrong;
  a.query = fx.by_patient;
  a.cinstance = fx.audited;
  DecisionRequest b = a;
  b.query = fx.all_cities;

  EXPECT_FALSE(decide(a).from_cache);  // miss: cache = {A}
  EXPECT_TRUE(decide(a).from_cache);   // hit: A is now hot
  // B computes but is refused admission: it has been seen less often than
  // the resident A it would evict.
  EXPECT_FALSE(decide(b).from_cache);  // miss; not cached
  EXPECT_TRUE(decide(a).from_cache);   // A survived the one-shot B
  // A second B matches A's frequency: admitted, displacing A.
  EXPECT_FALSE(decide(b).from_cache);  // miss: evicts A, cache = {B}
  EXPECT_TRUE(decide(b).from_cache);   // hit
  EXPECT_FALSE(decide(a).from_cache);  // miss: A was evicted

  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, 7u);
  EXPECT_EQ(counters.cache_hits, 3u);
  EXPECT_EQ(counters.cache_misses, 4u);
  EXPECT_EQ(counters.admission_rejects, 1u);  // B's refused first insert
  EXPECT_GE(counters.evictions, 1u);          // A displaced by the hot B
  EXPECT_GT(counters.cache_bytes, 0u);

  // ClearCache drops the memoized results but preserves the counters.
  EXPECT_OK(service.ClearCache(handle));
  EXPECT_FALSE(decide(a).from_cache);
  ASSERT_OK_AND_ASSIGN(after, service.counters(handle));
  EXPECT_EQ(after.requests, 8u);
  EXPECT_EQ(after.cache_hits, 3u);
  EXPECT_EQ(after.cache_misses, 5u);
}

TEST(ServiceTest, CapacityZeroNeverHitsAndStillCountsWork) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/0));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;

  EXPECT_FALSE(service.Decide({handle, request}).from_cache);
  EXPECT_FALSE(service.Decide({handle, request}).from_cache);
  EXPECT_OK(service.ClearCache(handle));  // no-op with no cache, stays safe
  EXPECT_FALSE(service.Decide({handle, request}).from_cache);

  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.requests, 3u);
  EXPECT_EQ(counters.cache_hits, 0u);
  // Misses count real evaluations even with memoization off.
  EXPECT_EQ(counters.cache_misses, 3u);
}

TEST(ServiceTest, WitnessRunsAreKeyedSeparately) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/64));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest lean;
  lean.kind = ProblemKind::kRcdpStrong;
  lean.query = fx.by_patient;
  lean.cinstance = fx.audited;
  DecisionRequest with = lean;
  with.want_witness = true;
  ASSERT_OK_AND_ASSIGN(lean_key, service.FingerprintRequest(handle, lean));
  ASSERT_OK_AND_ASSIGN(with_key, service.FingerprintRequest(handle, with));
  EXPECT_NE(lean_key, with_key);
}

TEST(ServiceTest, SearchStatsMergeAccumulatesFieldWise) {
  SearchStats a;
  a.valuations = 1;
  a.worlds = 2;
  a.extensions = 3;
  a.cc_checks = 4;
  a.query_evals = 5;
  SearchStats b = a;
  b.Merge(a);
  EXPECT_EQ(b.valuations, 2u);
  EXPECT_EQ(b.worlds, 4u);
  EXPECT_EQ(b.extensions, 6u);
  EXPECT_EQ(b.cc_checks, 8u);
  EXPECT_EQ(b.query_evals, 10u);
  b += a;
  EXPECT_EQ(b.valuations, 3u);
  EXPECT_EQ(b.query_evals, 15u);
}

TEST(ServiceTest, CountersAggregatePerRequestStats) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(MakeOptions(/*workers=*/0, /*cache=*/0));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;
  Decision first = service.Decide({handle, request});
  Decision second = service.Decide({handle, request});
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());

  // With memoization off both runs do real work; the shard counters are
  // the field-wise sum of the per-request stats.
  ASSERT_OK_AND_ASSIGN(counters, service.counters(handle));
  EXPECT_EQ(counters.search.valuations,
            first.stats.valuations + second.stats.valuations);
  EXPECT_EQ(counters.search.query_evals,
            first.stats.query_evals + second.stats.query_evals);
  EXPECT_GT(counters.search.valuations, 0u);
}

}  // namespace
}  // namespace relcomp
