// Experiment ENG-B: batch decision throughput through the service stack.
//
// The workload models MDM audit traffic: a large closed-world patient master
// (|Dm| = state.range), an IND CC binding visits to it, and a stream of
// cheap per-query completeness decisions (RCDP strong/viable, ground MINP,
// and the PTIME IND RCQP of Corollary 7.2). The same request stream is
// answered several ways:
//   cold    — independent decider calls on the raw setting (the pre-service
//             call pattern): every request re-derives the Adom seed (a scan
//             and sort of all |Dm| constants) and recompiles the CCs;
//   warm    — SubmitBatch through the CompletenessService over a
//             PreparedSetting built once, caching off. Each request adds
//             only its own constants and fresh names to the setting's
//             shared Adom seed, and these deciders never enumerate the
//             full Adom, so a request costs O(|T| + |Q|) whatever |Dm|;
//   memo    — the same with the shard cache on: repeated queries collapse
//             to fingerprint lookups (the serving-traffic regime);
//   async   — the same workload through SubmitAsync futures.
// cold grows with |Dm| and warm stays flat in it, so warm's gap over cold
// widens with |Dm|; memo sits another order of magnitude above warm.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "service/service.h"

namespace relcomp {
namespace {

Value S(const std::string& s) { return Value::Sym(s); }

/// A setting with `master_rows` patients in Dm and an IND CC
/// π_nhs(Visit) ⊆ π_nhs(Patientm).
PartiallyClosedSetting MakeAuditSetting(int master_rows) {
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs", Domain::Infinite()},
                Attribute{"city", Domain::Finite({S("EDI"), S("LON")})},
                Attribute{"year", Domain::IntRange(1998, 2001)}}));
  setting.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  for (int i = 0; i < master_rows; ++i) {
    setting.dm.AddTuple("Patientm", {S("nhs-" + std::to_string(i))});
  }
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}, VarId{1}, VarId{2}}}});
  setting.ccs.emplace_back("visits_known", std::move(proj), "Patientm",
                           std::vector<int>{0});
  return setting;
}

/// A small audited instance whose patients exist in every MakeAuditSetting.
CInstance MakeAuditedInstance(const DatabaseSchema& schema) {
  Instance db(schema);
  db.AddTuple("Visit", {S("nhs-0"), S("EDI"), Value::Int(1999)});
  db.AddTuple("Visit", {S("nhs-1"), S("LON"), Value::Int(2000)});
  db.AddTuple("Visit", {S("nhs-2"), S("EDI"), Value::Int(2001)});
  return CInstance::FromInstance(db);
}

/// One audit sweep: `distinct` per-patient queries, each decided in four
/// problem kinds (mixed RCDP / RCQP / MINP traffic), `repeat` times over.
std::vector<DecisionRequest> MakeWorkload(const CInstance& audited,
                                          int distinct, int repeat) {
  std::vector<DecisionRequest> requests;
  for (int r = 0; r < repeat; ++r) {
    for (int i = 0; i < distinct; ++i) {
      // q_i(c) :- Visit("nhs-i", c, y): which cities has patient i visited?
      // Head and join variables sit in finite-domain columns, so no
      // decider enumerates the full Adom and the decision stays cheap.
      ConjunctiveQuery cq(
          {CTerm(VarId{0})},
          {RelAtom{"Visit",
                   {CTerm(S("nhs-" + std::to_string(i))), CTerm(VarId{0}),
                    CTerm(VarId{1})}}});
      Query q = Query::Cq(std::move(cq));
      for (ProblemKind kind :
           {ProblemKind::kRcdpStrong, ProblemKind::kRcdpViable,
            ProblemKind::kRcqpStrong, ProblemKind::kMinpStrong}) {
        DecisionRequest request;
        request.kind = kind;
        request.query = q;
        request.cinstance = audited;
        requests.push_back(std::move(request));
      }
    }
  }
  return requests;
}

constexpr int kDistinctQueries = 8;

/// `requests`, all routed to `handle`.
std::vector<ServiceRequest> Routed(
    SettingHandle handle, const std::vector<DecisionRequest>& requests) {
  std::vector<ServiceRequest> routed;
  routed.reserve(requests.size());
  for (const DecisionRequest& request : requests) {
    routed.push_back(ServiceRequest{handle, request});
  }
  return routed;
}

void BM_Cold_IndependentCalls(benchmark::State& state) {
  PartiallyClosedSetting setting =
      MakeAuditSetting(static_cast<int>(state.range(0)));
  CInstance audited = MakeAuditedInstance(setting.schema);
  std::vector<DecisionRequest> workload =
      MakeWorkload(audited, kDistinctQueries, /*repeat=*/1);
  for (auto _ : state) {
    for (const DecisionRequest& request : workload) {
      Decision decision = DecideCold(request, setting);
      benchmark::DoNotOptimize(decision);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_Cold_IndependentCalls)->Arg(256)->Arg(2048)->Arg(8192);

void RunServiceBatch(benchmark::State& state, size_t cache_capacity,
                     bool metrics = true) {
  PartiallyClosedSetting setting =
      MakeAuditSetting(static_cast<int>(state.range(0)));
  CInstance audited = MakeAuditedInstance(setting.schema);
  std::vector<DecisionRequest> workload =
      MakeWorkload(audited, kDistinctQueries, /*repeat=*/1);
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = cache_capacity;
  options.metrics = metrics;
  CompletenessService service(options);
  Result<SettingHandle> handle = service.RegisterSetting(setting);
  if (!handle.ok()) {
    state.SkipWithError(handle.status().ToString().c_str());
    return;
  }
  const std::vector<ServiceRequest> batch = Routed(*handle, workload);
  for (auto _ : state) {
    std::vector<Decision> decisions = service.SubmitBatch(batch);
    benchmark::DoNotOptimize(decisions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}

void BM_Service_WarmBatch(benchmark::State& state) {
  RunServiceBatch(state, /*cache_capacity=*/0);
}
BENCHMARK(BM_Service_WarmBatch)->Arg(256)->Arg(2048)->Arg(8192)->Arg(24576)
    ->UseRealTime();

void BM_Service_MemoizedBatch(benchmark::State& state) {
  RunServiceBatch(state, /*cache_capacity=*/1024);
}
BENCHMARK(BM_Service_MemoizedBatch)->Arg(256)->Arg(2048)->Arg(8192)
    ->UseRealTime();

/// The A/B baseline for instrumentation overhead: identical to
/// BM_Service_WarmBatch but with every metric instrument stripped
/// (ServiceOptions::metrics = false). The warm-batch medians of the two
/// should stay within ~2% of each other.
void BM_Service_WarmBatch_NoObs(benchmark::State& state) {
  RunServiceBatch(state, /*cache_capacity=*/0, /*metrics=*/false);
}
BENCHMARK(BM_Service_WarmBatch_NoObs)->Arg(256)->Arg(2048)->Arg(8192)
    ->UseRealTime();

/// The async front door, memoized: submit the whole workload as futures and
/// drain them — the per-request promise/queue overhead on top of memo.
void BM_Service_AsyncFutures(benchmark::State& state) {
  PartiallyClosedSetting setting =
      MakeAuditSetting(static_cast<int>(state.range(0)));
  CInstance audited = MakeAuditedInstance(setting.schema);
  std::vector<DecisionRequest> workload =
      MakeWorkload(audited, kDistinctQueries, /*repeat=*/1);
  ServiceOptions options;
  options.num_workers = 4;
  CompletenessService service(options);
  Result<SettingHandle> handle = service.RegisterSetting(setting);
  if (!handle.ok()) {
    state.SkipWithError(handle.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    std::vector<std::future<Decision>> futures;
    futures.reserve(workload.size());
    for (const DecisionRequest& request : workload) {
      futures.push_back(service.SubmitAsync(ServiceRequest{*handle, request}));
    }
    for (std::future<Decision>& future : futures) {
      Decision decision = future.get();
      benchmark::DoNotOptimize(decision);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_Service_AsyncFutures)->Arg(2048)
    ->UseRealTime();

/// Two fingerprint-distinct settings interleaved in one batch: routing and
/// per-shard caching must not tax the single-setting path.
void BM_Service_TwoSettingsInterleaved(benchmark::State& state) {
  PartiallyClosedSetting setting_a =
      MakeAuditSetting(static_cast<int>(state.range(0)));
  PartiallyClosedSetting setting_b =
      MakeAuditSetting(static_cast<int>(state.range(0)) + 1);
  CInstance audited = MakeAuditedInstance(setting_a.schema);
  std::vector<DecisionRequest> workload =
      MakeWorkload(audited, kDistinctQueries, /*repeat=*/1);
  ServiceOptions options;
  options.num_workers = 4;
  CompletenessService service(options);
  Result<SettingHandle> handle_a = service.RegisterSetting(setting_a);
  Result<SettingHandle> handle_b = service.RegisterSetting(setting_b);
  if (!handle_a.ok() || !handle_b.ok()) {
    state.SkipWithError("registration failed");
    return;
  }
  std::vector<ServiceRequest> batch;
  batch.reserve(workload.size() * 2);
  for (const DecisionRequest& request : workload) {
    batch.push_back(ServiceRequest{*handle_a, request});
    batch.push_back(ServiceRequest{*handle_b, request});
  }
  for (auto _ : state) {
    std::vector<Decision> decisions = service.SubmitBatch(batch);
    benchmark::DoNotOptimize(decisions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_Service_TwoSettingsInterleaved)->Arg(2048)
    ->UseRealTime();

/// Experiment SCHED-C: two-tenant contention — the scheduler's reason to
/// exist. An expensive tenant (|Dm| = 8192) floods the single worker with
/// a 64-request backlog; a cheap tenant (|Dm| = 64, weight 8) then submits
/// 8 small requests. Under FIFO the cheap tenant queues behind the whole
/// backlog; under fair-share it interleaves at 8:1. Reported counters are
/// the cheap tenant's completion latency percentiles (microseconds) —
/// p50/p99 should collapse by an order of magnitude under `fair`.
void RunContendedTwoTenants(benchmark::State& state,
                            sched::SchedPolicy policy) {
  PartiallyClosedSetting heavy_setting = MakeAuditSetting(8192);
  PartiallyClosedSetting cheap_setting = MakeAuditSetting(64);
  CInstance heavy_audited = MakeAuditedInstance(heavy_setting.schema);
  CInstance cheap_audited = MakeAuditedInstance(cheap_setting.schema);
  std::vector<DecisionRequest> heavy_workload =
      MakeWorkload(heavy_audited, /*distinct=*/16, /*repeat=*/1);  // 64 reqs
  std::vector<DecisionRequest> cheap_workload =
      MakeWorkload(cheap_audited, /*distinct=*/2, /*repeat=*/1);  // 8 reqs

  ServiceOptions options;
  options.num_workers = 1;  // forces queueing: the contention under test
  options.cache_capacity = 0;
  options.policy = policy;
  CompletenessService service(options);
  ShardOptions heavy_opts;
  heavy_opts.weight = 1;
  ShardOptions cheap_opts;
  cheap_opts.weight = 8;
  Result<SettingHandle> heavy = service.RegisterSetting(heavy_setting,
                                                        heavy_opts);
  Result<SettingHandle> cheap = service.RegisterSetting(cheap_setting,
                                                        cheap_opts);
  if (!heavy.ok() || !cheap.ok()) {
    state.SkipWithError("registration failed");
    return;
  }

  std::vector<double> cheap_latency_us;
  for (auto _ : state) {
    std::vector<std::future<Decision>> heavy_futures;
    heavy_futures.reserve(heavy_workload.size());
    for (const DecisionRequest& request : heavy_workload) {
      heavy_futures.push_back(
          service.SubmitAsync(ServiceRequest{*heavy, request}));
    }
    std::mutex mu;
    size_t pending = cheap_workload.size();
    std::promise<void> cheap_done;
    for (const DecisionRequest& request : cheap_workload) {
      const auto submitted = std::chrono::steady_clock::now();
      service.SubmitAsync(
          ServiceRequest{*cheap, request},
          [&mu, &pending, &cheap_done, &cheap_latency_us,
           submitted](Decision) {
            const double us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - submitted)
                    .count();
            bool last = false;
            {
              std::lock_guard<std::mutex> lock(mu);
              cheap_latency_us.push_back(us);
              last = --pending == 0;
            }
            // Signal outside the lock: the main thread may destroy `mu`
            // the moment it wakes.
            if (last) cheap_done.set_value();
          });
    }
    cheap_done.get_future().wait();
    for (std::future<Decision>& future : heavy_futures) future.get();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(heavy_workload.size() + cheap_workload.size()));
  if (!cheap_latency_us.empty()) {
    std::sort(cheap_latency_us.begin(), cheap_latency_us.end());
    state.counters["cheap_p50_us"] =
        cheap_latency_us[cheap_latency_us.size() / 2];
    state.counters["cheap_p99_us"] =
        cheap_latency_us[cheap_latency_us.size() * 99 / 100];
  }
}

void BM_Service_TwoTenantContended_Fifo(benchmark::State& state) {
  RunContendedTwoTenants(state, sched::SchedPolicy::kFifo);
}
BENCHMARK(BM_Service_TwoTenantContended_Fifo)->UseRealTime();

void BM_Service_TwoTenantContended_FairShare(benchmark::State& state) {
  RunContendedTwoTenants(state, sched::SchedPolicy::kFairShare);
}
BENCHMARK(BM_Service_TwoTenantContended_FairShare)->UseRealTime();

/// An audited c-instance whose Mod(T, Dm, V) enumeration must exhaust the
/// full |Adom|^vars valuation space: `vars` variables in the infinite nhs
/// column plus one ground "ghost" row no world can satisfy the IND with.
CInstance MakeSlowAudited(const DatabaseSchema& schema, int vars) {
  CInstance audited(schema);
  CTable& visits = audited.at("Visit");
  visits.AddRow({Cell(S("ghost")), Cell(S("EDI")), Cell(Value::Int(1999))});
  for (int v = 0; v < vars; ++v) {
    visits.AddRow({Cell(VarId{v}), Cell(S("EDI")), Cell(Value::Int(1999))});
  }
  return audited;
}

/// Experiment SCHED-D: mid-run shed latency — the checkpoints' reason to
/// exist. One slow evaluation (a ~260-constant Adom squared, ≥100ms of
/// enumeration) is submitted with a deadline that expires almost
/// immediately; reported is the latency from deadline expiry to the
/// decision resolving. With checkpoint_interval = 0 (the pre-checkpoint
/// behavior) the worker runs the search to completion and shed latency is
/// the full evaluation time; with checkpoints on, the abort lands within
/// one interval — shed_p50/p99 should collapse by orders of magnitude.
void RunDeadlineShedLatency(benchmark::State& state,
                            uint64_t checkpoint_interval) {
  PartiallyClosedSetting setting = MakeAuditSetting(256);
  CInstance audited = MakeSlowAudited(setting.schema, /*vars=*/2);
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{20})},
      {RelAtom{"Visit", {VarId{21}, VarId{20}, VarId{22}}}}));
  request.cinstance = audited;
  request.options.checkpoint_interval = checkpoint_interval;

  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // aborted runs are never cached anyway
  CompletenessService service(options);
  Result<SettingHandle> handle = service.RegisterSetting(setting);
  if (!handle.ok()) {
    state.SkipWithError(handle.status().ToString().c_str());
    return;
  }

  std::vector<double> shed_us;
  for (auto _ : state) {
    ServiceRequest sr{*handle, request};
    const sched::TimePoint deadline = sched::DeadlineAfterMs(2);
    sr.request.options.deadline = deadline;
    Decision decision = service.SubmitAsync(std::move(sr)).get();
    const double us = std::chrono::duration<double, std::micro>(
                          sched::Clock::now() - deadline)
                          .count();
    shed_us.push_back(us > 0 ? us : 0.0);
    benchmark::DoNotOptimize(decision);
  }
  if (!shed_us.empty()) {
    std::sort(shed_us.begin(), shed_us.end());
    state.counters["shed_p50_us"] = shed_us[shed_us.size() / 2];
    state.counters["shed_p99_us"] = shed_us[shed_us.size() * 99 / 100];
  }
}

void BM_Service_DeadlineShedLatency_NoCheckpoints(benchmark::State& state) {
  RunDeadlineShedLatency(state, /*checkpoint_interval=*/0);
}
BENCHMARK(BM_Service_DeadlineShedLatency_NoCheckpoints)->UseRealTime();

void BM_Service_DeadlineShedLatency_Checkpointed(benchmark::State& state) {
  RunDeadlineShedLatency(state, /*checkpoint_interval=*/4096);
}
BENCHMARK(BM_Service_DeadlineShedLatency_Checkpointed)->UseRealTime();

/// Experiment CACHE-W: warm-start first-batch latency — the reason cache
/// persistence exists. Each iteration stands up a FRESH service (the
/// "restarted process") and submits the whole audit workload once:
///   Cold     — every request evaluates from scratch;
///   Restored — the service first loads a snapshot saved by a previous
///              service (LoadCaches, fingerprint-matched at
///              RegisterSetting), so the first batch is served from
///              yesterday's decisions with zero evaluations.
/// The gap is the restart penalty persistence removes; `misses` confirms
/// Restored did no decider work.
void RunWarmStartFirstBatch(benchmark::State& state, bool restored) {
  PartiallyClosedSetting setting = MakeAuditSetting(2048);
  CInstance audited = MakeAuditedInstance(setting.schema);
  std::vector<DecisionRequest> workload =
      MakeWorkload(audited, kDistinctQueries, /*repeat=*/1);

  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 1024;
  const std::string snapshot_path =
      "/tmp/relcomp_bench_warmstart.rccs";
  if (restored) {
    // The "previous process": compute the workload once and snapshot it.
    CompletenessService warmer(options);
    Result<SettingHandle> handle = warmer.RegisterSetting(setting);
    if (!handle.ok()) {
      state.SkipWithError(handle.status().ToString().c_str());
      return;
    }
    warmer.SubmitBatch(Routed(*handle, workload));
    Status saved = warmer.SaveCaches(snapshot_path);
    if (!saved.ok()) {
      state.SkipWithError(saved.ToString().c_str());
      return;
    }
  }

  // Routed per fresh service below; only the handles change.
  std::vector<ServiceRequest> batch = Routed(SettingHandle{}, workload);
  uint64_t misses = 0;
  for (auto _ : state) {
    CompletenessService service(options);
    if (restored) {
      Result<size_t> staged = service.LoadCaches(snapshot_path);
      if (!staged.ok()) {
        state.SkipWithError(staged.status().ToString().c_str());
        return;
      }
    }
    Result<SettingHandle> handle = service.RegisterSetting(setting);
    if (!handle.ok()) {
      state.SkipWithError(handle.status().ToString().c_str());
      return;
    }
    for (ServiceRequest& request : batch) request.setting = *handle;
    std::vector<Decision> decisions = service.SubmitBatch(batch);
    benchmark::DoNotOptimize(decisions);
    misses = service.TotalCounters().cache_misses;
  }
  state.counters["first_batch_misses"] = static_cast<double>(misses);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  if (restored) std::remove(snapshot_path.c_str());
}

void BM_Service_WarmStart_Cold(benchmark::State& state) {
  RunWarmStartFirstBatch(state, /*restored=*/false);
}
BENCHMARK(BM_Service_WarmStart_Cold)->UseRealTime();

void BM_Service_WarmStart_Restored(benchmark::State& state) {
  RunWarmStartFirstBatch(state, /*restored=*/true);
}
BENCHMARK(BM_Service_WarmStart_Restored)->UseRealTime();

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
