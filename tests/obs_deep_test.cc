// Deep observability tests: the pieces layered on top of the basic
// metrics/trace/slowlog machinery.
//
// Unit layer: SearchProfile slice algebra (nested pause/resume, tiling,
// the slice cap), sliding-window histograms and rates on explicit
// timelines, histogram overflow-bucket quantiles and merge-under-
// concurrency, Prometheus/JSON label escaping, the trace-export ring and
// the Chrome trace_event renderer's tiling invariant.
//
// Service layer: slow-log entries embed the evaluation's SearchProfile
// and identity fields; DumpTraces() emits per-loop sub-slices; windowed
// rates/quantiles appear in DumpMetrics; the stall watchdog flags an
// evaluation whose progress hook wedges, within one threshold period.
//
// The stress case (RELCOMP_OBS_STRESS=1) drives the full pipeline —
// sampler thread, watchdog, trace ring, windows — under concurrent load,
// and writes DumpMetrics(json) + the Chrome trace dump into
// RELCOMP_OBS_DUMP_DIR when set (the CI failure-artifact hook).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "service/service.h"
#include "test_util.h"

namespace relcomp {
namespace {

using obs::HistogramData;
using obs::MetricsDump;
using obs::MetricsRegistry;
using obs::Trace;
using obs::TraceRecord;
using obs::TraceSink;
using obs::WindowedHistogram;
using testing::MakeSlowFixture;
using testing::SlowFixture;

using Clock = std::chrono::steady_clock;

Clock::time_point At(uint64_t micros) {
  return Clock::time_point(std::chrono::microseconds(micros));
}

// ---------------------------------------------------------------------------
// SearchProfile

TEST(SearchProfileTest, SingleLoopSliceAndTotal) {
  SearchProfile profile;
  profile.Start(At(0));
  profile.EnterLoop("ground", At(10));
  profile.Heartbeat(100);
  profile.ExitLoop("ground", 250, At(40));
  profile.Finish(At(50));

  EXPECT_TRUE(profile.finished());
  EXPECT_EQ(profile.total_micros(), 50u);
  ASSERT_EQ(profile.slices().size(), 1u);
  EXPECT_STREQ(profile.slices()[0].loop, "ground");
  EXPECT_EQ(profile.slices()[0].start_micros, 10u);
  EXPECT_EQ(profile.slices()[0].end_micros, 40u);
  EXPECT_EQ(profile.slices()[0].steps, 250u);
  ASSERT_EQ(profile.totals().size(), 1u);
  EXPECT_EQ(profile.totals()[0].micros, 30u);
  EXPECT_EQ(profile.totals()[0].steps, 250u);
  EXPECT_EQ(profile.totals()[0].entries, 1u);
  EXPECT_NE(profile.ToString().find("ground"), std::string::npos);
}

TEST(SearchProfileTest, NestedLoopPausesAndResumesParent) {
  // Outer runs [0,50), inner [10,30): the outer's slice is paused while
  // the inner runs and resumes at the inner's exit instant, so the slices
  // are non-overlapping and tile the loop-covered time exactly.
  SearchProfile profile;
  profile.Start(At(0));
  profile.EnterLoop("outer", At(0));
  profile.Heartbeat(40);
  profile.EnterLoop("inner", At(10));
  profile.ExitLoop("inner", 7, At(30));
  profile.ExitLoop("outer", 90, At(50));
  profile.Finish(At(60));

  ASSERT_EQ(profile.slices().size(), 3u);
  // outer [0,10) paused, inner [10,30), outer resumed [30,50).
  EXPECT_STREQ(profile.slices()[0].loop, "outer");
  EXPECT_EQ(profile.slices()[0].start_micros, 0u);
  EXPECT_EQ(profile.slices()[0].end_micros, 10u);
  EXPECT_STREQ(profile.slices()[1].loop, "inner");
  EXPECT_EQ(profile.slices()[1].start_micros, 10u);
  EXPECT_EQ(profile.slices()[1].end_micros, 30u);
  EXPECT_EQ(profile.slices()[1].steps, 7u);
  EXPECT_STREQ(profile.slices()[2].loop, "outer");
  EXPECT_EQ(profile.slices()[2].start_micros, 30u);
  EXPECT_EQ(profile.slices()[2].end_micros, 50u);

  // Tiling: consecutive slices share boundaries; no gaps, no overlaps.
  for (size_t i = 1; i < profile.slices().size(); ++i) {
    EXPECT_EQ(profile.slices()[i].start_micros,
              profile.slices()[i - 1].end_micros);
  }

  ASSERT_EQ(profile.totals().size(), 2u);  // first-entered order
  EXPECT_STREQ(profile.totals()[0].loop, "outer");
  EXPECT_EQ(profile.totals()[0].micros, 30u);  // 10 + 20
  EXPECT_EQ(profile.totals()[0].steps, 90u);
  EXPECT_STREQ(profile.totals()[1].loop, "inner");
  EXPECT_EQ(profile.totals()[1].micros, 20u);
  EXPECT_EQ(profile.totals()[1].entries, 1u);
}

TEST(SearchProfileTest, FinishClosesLeftOpenLoops) {
  SearchProfile profile;
  profile.Start(At(0));
  profile.EnterLoop("a", At(0));
  profile.EnterLoop("b", At(5));
  profile.Finish(At(20));
  profile.Finish(At(99));  // idempotent: the first Finish wins

  EXPECT_EQ(profile.total_micros(), 20u);
  uint64_t covered = 0;
  for (const SearchProfile::Slice& slice : profile.slices()) {
    covered += slice.duration_micros();
  }
  EXPECT_EQ(covered, 20u);  // a [0,5) + b [5,20)... then a resumed [20,20)
}

TEST(SearchProfileTest, SliceCapDropsSlicesButTotalsStayExact) {
  SearchProfile profile;
  profile.Start(At(0));
  const size_t kLoops = SearchProfile::kMaxSlices + 40;
  for (size_t i = 0; i < kLoops; ++i) {
    profile.EnterLoop("hot", At(2 * i));
    profile.ExitLoop("hot", 3, At(2 * i + 1));
  }
  profile.Finish(At(2 * kLoops));

  EXPECT_EQ(profile.slices().size(), SearchProfile::kMaxSlices);
  EXPECT_EQ(profile.dropped_slices(), kLoops - SearchProfile::kMaxSlices);
  ASSERT_EQ(profile.totals().size(), 1u);
  // Totals accumulate across dropped slices: 1us and 3 steps per entry.
  EXPECT_EQ(profile.totals()[0].micros, kLoops);
  EXPECT_EQ(profile.totals()[0].steps, 3 * kLoops);
  EXPECT_EQ(profile.totals()[0].entries, kLoops);
  EXPECT_NE(profile.ToString().find("dropped"), std::string::npos);
}

TEST(SearchProfileTest, CheckpointDrivesProfileAutomatically) {
  // The integration contract: constructing/destroying SearchCheckpoints
  // with a profile wired through SearchOptions produces nested loop
  // attribution without the loops doing anything explicit.
  SearchProfile profile;
  SearchOptions options;
  options.profile = &profile;
  {
    SearchCheckpoint outer(options, "outer-loop");
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(outer.Tick().ok());
    {
      SearchCheckpoint inner(options, "inner work", "inner-loop");
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(inner.Tick().ok());
    }
  }
  profile.Finish();

  ASSERT_EQ(profile.totals().size(), 2u);
  EXPECT_STREQ(profile.totals()[0].loop, "outer-loop");
  EXPECT_EQ(profile.totals()[0].steps, 5u);
  EXPECT_STREQ(profile.totals()[1].loop, "inner-loop");
  EXPECT_EQ(profile.totals()[1].steps, 3u);
}

// ---------------------------------------------------------------------------
// Sliding windows

TEST(WindowedHistogramTest, SnapshotMergesOnlyRecentSeconds) {
  WindowedHistogram histogram(/*window_slots=*/8);
  const auto base = At(200'000'000);
  histogram.Record(100, base);
  histogram.Record(200, base + std::chrono::seconds(5));
  histogram.Record(400, base + std::chrono::seconds(6));

  const auto now = base + std::chrono::seconds(6);
  HistogramData recent = histogram.Snapshot(2, now);  // seconds 5 and 6
  EXPECT_EQ(recent.count, 2u);
  EXPECT_EQ(recent.sum, 600u);
  EXPECT_EQ(recent.max, 400u);
  HistogramData all = histogram.Snapshot(8, now);
  EXPECT_EQ(all.count, 3u);
  EXPECT_EQ(all.sum, 700u);
  // The rate is the window's count over its width.
  EXPECT_DOUBLE_EQ(histogram.Rate(2, now), 2.0 / 2.0);
  EXPECT_DOUBLE_EQ(histogram.Rate(8, now), 3.0 / 8.0);
  HistogramData idle = histogram.Snapshot(2, now + std::chrono::seconds(30));
  EXPECT_EQ(idle.count, 0u);
  EXPECT_EQ(idle.Quantile(0.95), 0.0);

  // 16 seconds after `base` the ring has wrapped: base's slot is recycled,
  // and the older seconds must not leak into any window — not even one
  // wider than the ring, which is clamped to the ring's span.
  const auto later = base + std::chrono::seconds(16);
  histogram.Record(800, later);
  EXPECT_EQ(histogram.Snapshot(8, later).count, 1u);
  EXPECT_EQ(histogram.Snapshot(1000, later).count, 1u);
  EXPECT_DOUBLE_EQ(histogram.Rate(4, later), 1.0 / 4.0);
}

// ---------------------------------------------------------------------------
// Histogram edge cases

TEST(HistogramEdgeTest, OverflowBucketQuantilesStayFinite) {
  // Values at and past 2^63 land in the last bucket; quantiles must stay
  // inside [lower bound, max], not overflow or return garbage.
  HistogramData data;
  const uint64_t huge = uint64_t{1} << 63;
  data.buckets[HistogramData::BucketIndex(huge)] += 3;
  data.count = 3;
  data.sum = 0;  // sum would overflow; quantiles never consult it
  data.max = UINT64_MAX;

  EXPECT_EQ(HistogramData::BucketIndex(huge), 64);
  EXPECT_EQ(HistogramData::BucketIndex(UINT64_MAX), 64);
  const double p50 = data.Quantile(0.5);
  const double p99 = data.Quantile(0.99);
  EXPECT_GE(p50, static_cast<double>(HistogramData::BucketLowerBound(64)));
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, static_cast<double>(UINT64_MAX) * 1.0000001);
}

TEST(HistogramEdgeTest, MergeUnderConcurrentRecordingKeepsInvariants) {
  // Writers hammer a live histogram (including racing max updates) while
  // a reader repeatedly snapshots and merges: merging must add counts and
  // keep the max. A snapshot taken while writers run is no consistent cut
  // (it reads the buckets before `count`, so records finishing in between
  // skew the two either way); count == sum(buckets) is checked once the
  // writers have joined.
  obs::Histogram live;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&live, &stop, t] {
      // A floor of records before honoring `stop`: the reader loop can
      // finish before this thread is even scheduled, and the final
      // assertions need a guaranteed non-empty histogram whose max walked
      // past 2^40 (the doubling cycle resets there, so 100 >> 41 steps).
      uint64_t value = 1;
      for (int j = 0; j < 100 || !stop.load(std::memory_order_relaxed);
           ++j) {
        live.Record(value + static_cast<uint64_t>(t));
        value = value < (uint64_t{1} << 40) ? value * 2 : 1;
      }
    });
  }
  HistogramData merged;
  for (int i = 0; i < 200; ++i) {
    HistogramData snap = live.Snapshot();
    merged = HistogramData{};
    merged.Merge(snap).Merge(snap);
    EXPECT_EQ(merged.count, 2 * snap.count);
    EXPECT_EQ(merged.max, snap.max);
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  const HistogramData final_snap = live.Snapshot();
  uint64_t bucket_total = 0;
  for (uint64_t b : final_snap.buckets) bucket_total += b;
  EXPECT_EQ(final_snap.count, bucket_total);
  EXPECT_GT(final_snap.count, 0u);
  EXPECT_GE(final_snap.max, uint64_t{1} << 40);
}

TEST(MetricsEscapingTest, PrometheusAndJsonEscapeHostileLabelValues) {
  MetricsRegistry registry;
  // A tenant label carrying every character the exposition must escape.
  const std::string hostile = "a\"b\\c\nd";
  obs::Counter* counter = registry.GetCounter(
      "relcomp_escape_test_total", {{"tenant", hostile}}, "escaping");
  ASSERT_NE(counter, nullptr);
  counter->Inc(7);

  MetricsDump dump;
  registry.DumpInto(&dump);
  const std::string prom = dump.Render(obs::DumpFormat::kPrometheus);
  // Prometheus text: backslash, quote, and newline escaped inside the
  // label value — and the raw newline must NOT appear mid-line.
  EXPECT_NE(prom.find("tenant=\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("a\"b"), std::string::npos) << prom;

  const std::string json = dump.Render(obs::DumpFormat::kJson);
  EXPECT_NE(json.find("\"tenant\":\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Trace export

TEST(TraceSinkTest, BoundedRingOverwritesOldestAndCountsDrops) {
  TraceSink sink;
  auto make = [](uint64_t id) {
    TraceRecord record;
    auto trace = std::make_shared<Trace>(id, At(0));
    trace->Finish("ok", At(10));
    record.trace = std::move(trace);
    return record;
  };
  sink.Offer(make(1));  // unconfigured: capacity 0 drops silently
  EXPECT_EQ(sink.size(), 0u);

  sink.Configure(2);
  sink.Offer(make(1));
  sink.Offer(make(2));
  sink.Offer(make(3));
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.capacity(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  const auto snapshot = sink.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].trace->id(), 2u);  // oldest first
  EXPECT_EQ(snapshot[1].trace->id(), 3u);
}

TEST(TraceExportTest, SubSlicesAndGapFillTileTheEvaluateSpan) {
  // A request trace with a 40us evaluate span and a profile covering
  // [0,10) and [20,30) of it: the renderer must emit the two loop slices
  // plus "other" gap-fills [10,20) and [30,40), tiling the span exactly.
  auto trace = std::make_shared<Trace>(7, At(1000));
  trace->Phase("admit", At(1000));
  trace->Phase("evaluate", At(1100));
  trace->Phase("deliver", At(1140));
  trace->Finish("YES", At(1150));
  trace->SetTrack(2);

  auto profile = std::make_shared<SearchProfile>();
  profile->Start(At(1100));
  profile->EnterLoop("ground", At(1100));
  profile->ExitLoop("ground", 11, At(1110));
  profile->EnterLoop("mod-enum", At(1120));
  profile->ExitLoop("mod-enum", 22, At(1130));
  profile->Finish(At(1140));

  TraceRecord record;
  record.trace = trace;
  record.tenant = "3";
  record.kind = "RCDP_STRONG";
  record.profile = profile;
  record.worker = 2;

  const std::string json = obs::RenderChromeTrace({record});
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("relcomp requests"), std::string::npos);
  EXPECT_NE(json.find("relcomp workers"), std::string::npos);
  EXPECT_NE(json.find("req#7 tenant=3 kind=RCDP_STRONG"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"evaluate req#7\""), std::string::npos);
  EXPECT_NE(json.find("worker 2"), std::string::npos);

  // The evaluate span: ts = 1100 on the shared clock, dur = 40.
  EXPECT_NE(json.find("\"name\":\"evaluate req#7\",\"ph\":\"X\",\"ts\":1100,"
                      "\"dur\":40"),
            std::string::npos)
      << json;
  // Loop sub-slices at their absolute timestamps, with step args.
  EXPECT_NE(json.find("\"name\":\"ground\",\"ph\":\"X\",\"ts\":1100,"
                      "\"dur\":10"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"steps\":11"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mod-enum\",\"ph\":\"X\",\"ts\":1120,"
                      "\"dur\":10"),
            std::string::npos)
      << json;
  // Gap fills: [10,20) and [30,40) of the span → ts 1110 and 1130.
  EXPECT_NE(json.find("\"name\":\"other\",\"ph\":\"X\",\"ts\":1110,"
                      "\"dur\":10"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"other\",\"ph\":\"X\",\"ts\":1130,"
                      "\"dur\":10"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Service acceptance

ServiceOptions DeepObsOptions() {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 64;
  options.trace_sample = 1;
  options.slow_log = 8;
  options.trace_ring = 16;
  return options;
}

TEST(ServiceObsDeepTest, SlowLogEntriesEmbedSearchProfiles) {
  SlowFixture slow = MakeSlowFixture(/*rows=*/7);
  CompletenessService service(DeepObsOptions());
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));

  ServiceRequest request;
  request.setting = handle;
  request.request = slow.Request();
  request.request.options.max_steps = 100'000;
  service.SubmitAsync(std::move(request)).get();

  const auto entries = service.SlowDecisions();
  ASSERT_FALSE(entries.empty());
  const obs::SlowEntry& worst = entries.front();
  EXPECT_EQ(worst.tenant, std::to_string(handle.id));
  EXPECT_EQ(worst.kind, std::string("rcdp-strong"));
  EXPECT_NE(worst.trace_id, 0u);
  ASSERT_NE(worst.trace, nullptr);
  EXPECT_EQ(worst.trace->id(), worst.trace_id);
  // The acceptance criterion: the entry embeds the evaluation's profile,
  // sealed, with per-loop attribution.
  ASSERT_NE(worst.profile, nullptr);
  EXPECT_TRUE(worst.profile->finished());
  EXPECT_FALSE(worst.profile->totals().empty());
  uint64_t total_steps = 0;
  for (const SearchProfile::LoopTotal& total : worst.profile->totals()) {
    EXPECT_NE(total.loop, nullptr);
    total_steps += total.steps;
  }
  EXPECT_GT(total_steps, 0u);
}

TEST(ServiceObsDeepTest, DumpTracesEmitsPerLoopSubSlices) {
  SlowFixture slow = MakeSlowFixture(/*rows=*/7);
  CompletenessService service(DeepObsOptions());
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));

  ServiceRequest request;
  request.setting = handle;
  request.request = slow.Request();
  request.request.options.max_steps = 100'000;
  service.SubmitAsync(std::move(request)).get();

  const std::string json = service.DumpTraces();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("evaluate req#"), std::string::npos);
  // The evaluation went through the decider's instrumented loops: at
  // least one known loop tag must appear as a worker-row sub-slice.
  const bool has_loop_slice =
      json.find("\"name\":\"ground\"") != std::string::npos ||
      json.find("\"name\":\"weak-ext\"") != std::string::npos ||
      json.find("\"name\":\"mod-enum\"") != std::string::npos ||
      json.find("\"name\":\"rcqp-dfs\"") != std::string::npos;
  EXPECT_TRUE(has_loop_slice) << json;
}

TEST(ServiceObsDeepTest, DumpMetricsReportsWindowedRatesAndRecentLatency) {
  SlowFixture slow = MakeSlowFixture(/*rows=*/6);
  CompletenessService service(DeepObsOptions());
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));

  for (int i = 0; i < 3; ++i) {
    service.Decide({handle, slow.Request()});
  }

  const std::string prom = service.DumpMetrics(obs::DumpFormat::kPrometheus);
  // The requests just delivered are inside every reporting window, so the
  // 60s rate is necessarily positive and the recent histogram non-empty.
  EXPECT_NE(prom.find("relcomp_requests_rate60s"), std::string::npos);
  EXPECT_NE(prom.find("relcomp_tenant_requests_rate60s{tenant=\"" +
                      std::to_string(handle.id) + "\"}"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("relcomp_requests_rate60s 0.000"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("relcomp_request_latency_recent60s_micros_count 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("relcomp_watchdog_stalls_total 0"), std::string::npos);

  const std::string json = service.DumpMetrics(obs::DumpFormat::kJson);
  EXPECT_NE(json.find("\"name\":\"relcomp_requests_rate10s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"type\":\"rate\""), std::string::npos);
}

TEST(ServiceObsDeepTest, SearchStepMetricsAttributePerLoop) {
  SlowFixture slow = MakeSlowFixture(/*rows=*/7);
  CompletenessService service(DeepObsOptions());
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));
  DecisionRequest request = slow.Request();
  request.options.max_steps = 100'000;
  service.Decide({handle, request});

  const std::string prom = service.DumpMetrics(obs::DumpFormat::kPrometheus);
  EXPECT_NE(prom.find("relcomp_search_steps_total{"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("loop=\""), std::string::npos) << prom;
  EXPECT_NE(prom.find("relcomp_search_loop_micros_count"), std::string::npos)
      << prom;
}

// The shared state of a deliberately wedged progress hook: the first
// invocation parks until the test releases it.
struct StallGate {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> parked{false};

  void Park() {
    parked.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return released; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

TEST(ServiceObsDeepTest, WatchdogFlagsStalledEvaluationWithinThreshold) {
  SlowFixture slow = MakeSlowFixture(/*rows=*/7);
  ServiceOptions options = DeepObsOptions();
  options.num_workers = 1;
  options.watchdog_stall_micros = 20'000;  // 20ms: aggressive but safe
  options.recorder_interval_ms = 10;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));

  auto gate = std::make_shared<StallGate>();
  // The request's own progress hook wedges on its first call — the
  // checkpoint's entry notification — simulating an evaluation that stops
  // making progress. The service's chained hook heartbeats BEFORE calling
  // it, so the watchdog knows which loop the evaluation is stuck in. The
  // hook object outlives the evaluation (released before future.get()).
  SearchOptions::SearchProgressFn wedge =
      [gate](const char* /*loop*/, uint64_t /*steps*/) {
        if (!gate->parked.load()) gate->Park();
      };
  ServiceRequest request;
  request.setting = handle;
  request.request = slow.Request();
  request.request.options.max_steps = 100'000;
  request.request.options.progress = &wedge;
  std::future<Decision> future = service.SubmitAsync(std::move(request));

  // The watchdog must flag the stall within a few threshold periods.
  bool flagged = false;
  std::string flagged_note;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    for (const obs::SlowEntry& entry : service.SlowDecisions()) {
      if (entry.note.find("watchdog") != std::string::npos) {
        flagged = true;
        flagged_note = entry.note;
      }
    }
    if (flagged) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gate->Release();  // un-wedge before asserting: a hang would mask failure
  const Decision decision = future.get();

  ASSERT_TRUE(flagged);
  EXPECT_NE(flagged_note.find("no checkpoint progress"), std::string::npos)
      << flagged_note;
  EXPECT_NE(flagged_note.find("tenant=" + std::to_string(handle.id)),
            std::string::npos)
      << flagged_note;
  EXPECT_NE(flagged_note.find("kind=rcdp-strong"), std::string::npos)
      << flagged_note;
  EXPECT_OK(decision.status);  // released: the evaluation completed

  // The stall is also visible in the dashboard, the metrics, and the
  // flight recorder's annotation stream.
  const std::string report = service.ObsReport();
  EXPECT_NE(report.find("watchdog stalls: 1"), std::string::npos) << report;
  const std::string prom = service.DumpMetrics(obs::DumpFormat::kPrometheus);
  EXPECT_NE(prom.find("relcomp_watchdog_stalls_total 1"), std::string::npos);
}

TEST(ServiceObsDeepTest, ObsReportShowsVitalsAndRecorderSamples) {
  SlowFixture slow = MakeSlowFixture(/*rows=*/6);
  ServiceOptions options = DeepObsOptions();
  options.recorder_interval_ms = 5;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));
  service.Decide({handle, slow.Request()});

  // The sampler thread ticks every 5ms; wait (bounded) for a sample.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::string report;
  while (Clock::now() < deadline) {
    report = service.ObsReport();
    if (report.find("flight recorder") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(report.find("=== relcomp obs report ==="), std::string::npos);
  EXPECT_NE(report.find("in-flight:"), std::string::npos);
  EXPECT_NE(report.find("flight recorder"), std::string::npos) << report;
  EXPECT_NE(report.find("tenant " + std::to_string(handle.id)),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("slow log:"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Stress: the full pipeline under concurrent load. Scaled up under
// RELCOMP_OBS_STRESS=1 (the CI sanitizer configuration); writes diagnostic
// dumps into RELCOMP_OBS_DUMP_DIR when set, which CI uploads as artifacts
// on failure.

TEST(ServiceObsDeepTest, ObsPipelineStress) {
  const bool big = std::getenv("RELCOMP_OBS_STRESS") != nullptr;
  const int rounds = big ? 12 : 3;
  const int per_round = big ? 24 : 8;
  // RELCOMP_OBS_WATCHDOG_US overrides the stall threshold; the CI stress
  // invocation sets it aggressively low so the watchdog fires against
  // legitimately-running evaluations, exercising the flagging path (and
  // its slow-log/recorder fan-out) under sanitizers. Spurious flags are
  // expected in that mode, so the zero-stall assertion only applies to
  // the default, only-a-real-wedge-trips-it threshold.
  const char* watchdog_env = std::getenv("RELCOMP_OBS_WATCHDOG_US");
  const uint64_t watchdog_us =
      watchdog_env ? std::strtoull(watchdog_env, nullptr, 10) : 500'000;

  SlowFixture slow = MakeSlowFixture(/*rows=*/7);
  ServiceOptions options = DeepObsOptions();
  options.num_workers = 4;
  options.trace_sample = 2;
  options.trace_ring = 32;
  options.recorder_interval_ms = 2;
  options.watchdog_stall_micros = watchdog_us;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));

  for (int round = 0; round < rounds; ++round) {
    std::vector<std::future<Decision>> futures;
    futures.reserve(per_round);
    for (int i = 0; i < per_round; ++i) {
      ServiceRequest request;
      request.setting = handle;
      request.request = slow.Request();
      request.request.options.max_steps = 50'000;
      futures.push_back(service.SubmitAsync(std::move(request)));
    }
    // Readers race the deliveries: every exposition path must be safe to
    // call while the pool, the sampler, and the watchdog are all live.
    (void)service.DumpMetrics(obs::DumpFormat::kJson);
    (void)service.DumpTraces();
    (void)service.ObsReport();
    (void)service.SlowDecisions();
    for (std::future<Decision>& future : futures) {
      EXPECT_OK(future.get().status);
    }
  }

  const std::string metrics = service.DumpMetrics(obs::DumpFormat::kJson);
  const std::string traces = service.DumpTraces();
  EXPECT_NE(metrics.find("relcomp_requests_rate10s"), std::string::npos);
  EXPECT_NE(traces.find("traceEvents"), std::string::npos);
  // No stalls at the default threshold: nothing wedged, so the watchdog
  // must not have fired (it flags only genuinely quiet heartbeats). With
  // an env-forced aggressive threshold, flags against slow-but-live
  // evaluations are the point — the assertion is what the pipeline
  // survived, checked above.
  if (watchdog_env == nullptr) {
    EXPECT_NE(metrics.find("\"name\":\"relcomp_watchdog_stalls_total\","
                           "\"labels\":{},\"type\":\"counter\",\"value\":0"),
              std::string::npos)
        << metrics;
  }

  if (const char* dir = std::getenv("RELCOMP_OBS_DUMP_DIR")) {
    std::ofstream(std::string(dir) + "/obs_stress_metrics.json",
                  std::ios::trunc)
        << metrics;
    std::ofstream(std::string(dir) + "/obs_stress_trace.json",
                  std::ios::trunc)
        << traces;
    std::ofstream(std::string(dir) + "/obs_stress_report.txt",
                  std::ios::trunc)
        << service.ObsReport();
  }
}

}  // namespace
}  // namespace relcomp
