// Experiment OBS-1: the cost of watching.
//
// The observability layer promises near-zero overhead on the request fast
// path: instrument updates are relaxed atomics, the per-evaluation
// SearchProfile is a bounded stack-local recorder, windows touch a single
// ring slot under a leaf mutex, and the trace ring only sees sampled
// requests. This file puts numbers on each of those claims:
//
//   micro  — SearchProfile enter/heartbeat/exit, WindowedHistogram Record,
//            live Histogram Record, and TraceSink Offer, each in isolation
//            (ns/op);
//   macro  — the service warm-batch workload from ENG-B decided under three
//            configurations: dark (metrics off), metrics (the default
//            production configuration: metrics + windows + profiles), and
//            full-obs (plus 1-in-1 trace sampling, a trace ring, the
//            flight-recorder sampler and an armed-but-quiet watchdog).
//
// dark vs metrics bounds the standing cost of the default telemetry;
// metrics vs full-obs bounds the marginal cost of turning every dial up
// for an incident. Both gaps should stay in the low single-digit percent.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "service/service.h"

namespace relcomp {
namespace {

using Clock = std::chrono::steady_clock;

void BM_Obs_SearchProfileLoopCycle(benchmark::State& state) {
  // One enter/heartbeat/exit cycle — what every instrumented search loop
  // pays per SearchCheckpoint when a profile is attached. The profile is
  // reset each kMaxSlices cycles so the slice buffer never saturates into
  // the (cheaper) dropped-slice path.
  SearchProfile profile;
  profile.Start(Clock::now());
  size_t cycles = 0;
  for (auto _ : state) {
    const auto now = Clock::now();
    profile.EnterLoop("bench", now);
    profile.Heartbeat(64);
    profile.ExitLoop("bench", 64, now);
    if (++cycles == SearchProfile::kMaxSlices) {
      state.PauseTiming();
      profile = SearchProfile();
      profile.Start(Clock::now());
      cycles = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_Obs_SearchProfileLoopCycle);

void BM_Obs_WindowedHistogramRecord(benchmark::State& state) {
  obs::WindowedHistogram histogram(/*window_slots=*/120);
  const auto now = Clock::now();
  uint64_t value = 1;
  for (auto _ : state) {
    histogram.Record(value, now);
    value = value < (uint64_t{1} << 30) ? value * 2 : 1;
  }
  benchmark::DoNotOptimize(histogram.Snapshot(60, now).count);
}
BENCHMARK(BM_Obs_WindowedHistogramRecord);

void BM_Obs_LiveHistogramRecord(benchmark::State& state) {
  obs::Histogram histogram;
  uint64_t value = 1;
  for (auto _ : state) {
    histogram.Record(value);
    value = value < (uint64_t{1} << 30) ? value * 2 : 1;
  }
  benchmark::DoNotOptimize(histogram.Snapshot().count);
}
BENCHMARK(BM_Obs_LiveHistogramRecord);

void BM_Obs_TraceSinkOffer(benchmark::State& state) {
  obs::TraceSink sink;
  sink.Configure(256);
  auto trace = std::make_shared<obs::Trace>(1, Clock::now());
  trace->Finish("ok", Clock::now());
  for (auto _ : state) {
    obs::TraceRecord record;
    record.trace = trace;
    record.tenant = "1";
    record.kind = "rcdp-strong";
    sink.Offer(std::move(record));
  }
  benchmark::DoNotOptimize(sink.dropped());
}
BENCHMARK(BM_Obs_TraceSinkOffer);

// --------------------------------------------------------------- macro ----

Value S(const std::string& s) { return Value::Sym(s); }

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

std::vector<DecisionRequest> MakeWorkload(const DatabaseSchema& schema) {
  Instance db(schema);
  db.AddTuple("Visit", {S("nhs-0"), S("EDI"), Value::Int(1999)});
  db.AddTuple("Visit", {S("nhs-1"), S("LON"), Value::Int(2000)});
  CInstance audited = CInstance::FromInstance(db);
  std::vector<DecisionRequest> requests;
  for (int i = 0; i < 8; ++i) {
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
  return requests;
}

enum class ObsLevel { kDark, kMetrics, kFullObs };

void RunServiceObsBatch(benchmark::State& state, ObsLevel level) {
  PartiallyClosedSetting setting =
      MakeAuditSetting(static_cast<int>(state.range(0)));
  std::vector<DecisionRequest> workload = MakeWorkload(setting.schema);
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 0;  // warm path: every request evaluates
  options.metrics = level != ObsLevel::kDark;
  if (level == ObsLevel::kFullObs) {
    options.trace_sample = 1;
    options.slow_log = 16;
    options.trace_ring = 256;
    options.recorder_interval_ms = 100;
    options.watchdog_stall_micros = 5'000'000;  // armed, never trips
  }
  CompletenessService service(options);
  Result<SettingHandle> handle = service.RegisterSetting(setting);
  if (!handle.ok()) {
    state.SkipWithError(handle.status().ToString().c_str());
    return;
  }
  std::vector<ServiceRequest> batch;
  for (const DecisionRequest& request : workload) {
    batch.push_back(ServiceRequest{*handle, request});
  }
  for (auto _ : state) {
    std::vector<Decision> decisions = service.SubmitBatch(batch);
    benchmark::DoNotOptimize(decisions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}

void BM_Obs_ServiceBatch_Dark(benchmark::State& state) {
  RunServiceObsBatch(state, ObsLevel::kDark);
}
BENCHMARK(BM_Obs_ServiceBatch_Dark)->Arg(256)->Arg(2048);

void BM_Obs_ServiceBatch_Metrics(benchmark::State& state) {
  RunServiceObsBatch(state, ObsLevel::kMetrics);
}
BENCHMARK(BM_Obs_ServiceBatch_Metrics)->Arg(256)->Arg(2048);

void BM_Obs_ServiceBatch_FullObs(benchmark::State& state) {
  RunServiceObsBatch(state, ObsLevel::kFullObs);
}
BENCHMARK(BM_Obs_ServiceBatch_FullObs)->Arg(256)->Arg(2048);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
