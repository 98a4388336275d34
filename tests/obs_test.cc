// Observability subsystem tests.
//
// Unit layer: histogram bucket geometry, merge algebra, quantile bounds,
// concurrent recording; metrics registry identity and both exposition
// formats; the trace phase machine's core invariant (contiguous spans sum
// exactly to the end-to-end total); the slow-decision log; the checkpoint
// progress hook; the ToString goldens.
//
// Service layer: a traced SubmitBatch produces span timelines whose
// durations account exactly for Decision::latency_micros; DumpMetrics
// exposes per-tenant latency histograms and the derived outcome counters;
// a coalesced waiter's trace records the join.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/shard_cache.h"
#include "core/types.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "sched/queue.h"
#include "service/service.h"
#include "test_util.h"

namespace relcomp {
namespace {

using obs::Histogram;
using obs::HistogramData;
using obs::LabelSet;
using obs::MetricsDump;
using obs::MetricsRegistry;
using obs::SlowDecisionLog;
using obs::SlowEntry;
using obs::Trace;
using obs::Tracer;
using obs::TraceTime;
using testing::AuditFixture;
using testing::MakeAuditFixture;
using testing::MakeSlowFixture;
using testing::SlowFixture;

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketGeometry) {
  // Bucket 0 is the value 0; bucket k holds [2^(k-1), 2^k).
  EXPECT_EQ(HistogramData::BucketIndex(0), 0);
  EXPECT_EQ(HistogramData::BucketIndex(1), 1);
  EXPECT_EQ(HistogramData::BucketIndex(2), 2);
  EXPECT_EQ(HistogramData::BucketIndex(3), 2);
  EXPECT_EQ(HistogramData::BucketIndex(4), 3);
  EXPECT_EQ(HistogramData::BucketIndex(7), 3);
  EXPECT_EQ(HistogramData::BucketIndex(8), 4);
  EXPECT_EQ(HistogramData::BucketIndex(~uint64_t{0}), 64);

  EXPECT_EQ(HistogramData::BucketLowerBound(0), 0u);
  EXPECT_EQ(HistogramData::BucketUpperBound(0), 0u);
  // Every bucket's bounds round-trip through BucketIndex, and consecutive
  // buckets tile the value space with no gap or overlap.
  for (int k = 1; k < HistogramData::kNumBuckets; ++k) {
    const uint64_t lo = HistogramData::BucketLowerBound(k);
    const uint64_t hi = HistogramData::BucketUpperBound(k);
    EXPECT_EQ(lo, uint64_t{1} << (k - 1)) << "bucket " << k;
    EXPECT_EQ(HistogramData::BucketIndex(lo), k) << "bucket " << k;
    EXPECT_EQ(HistogramData::BucketIndex(hi), k) << "bucket " << k;
    EXPECT_EQ(HistogramData::BucketUpperBound(k - 1) + 1, lo) << "bucket " << k;
  }
  EXPECT_EQ(HistogramData::BucketUpperBound(64), ~uint64_t{0});
}

TEST(HistogramTest, QuantileEmptyAndSingleValue) {
  Histogram hist;
  EXPECT_DOUBLE_EQ(hist.Snapshot().Quantile(0.5), 0.0);

  // A single-valued distribution reports that value at every quantile: the
  // in-bucket interpolation is capped at the observed max.
  for (int i = 0; i < 100; ++i) hist.Record(8);
  const HistogramData data = hist.Snapshot();
  EXPECT_EQ(data.count, 100u);
  EXPECT_EQ(data.sum, 800u);
  EXPECT_EQ(data.max, 8u);
  EXPECT_DOUBLE_EQ(data.Quantile(0.0), 8.0);
  EXPECT_DOUBLE_EQ(data.Quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(data.Quantile(0.99), 8.0);
  EXPECT_DOUBLE_EQ(data.Quantile(1.0), 8.0);
}

TEST(HistogramTest, QuantileBimodalDistribution) {
  // 90 fast requests (1us) and 10 slow ones (100us): p50 must report the
  // fast mode, p99 the slow mode.
  Histogram hist;
  for (int i = 0; i < 90; ++i) hist.Record(1);
  for (int i = 0; i < 10; ++i) hist.Record(100);
  const HistogramData data = hist.Snapshot();
  const double p50 = data.Quantile(0.50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);  // within the width of bucket [1, 2)
  // Rank 99 lands in bucket [64, 128); interpolation overshoots past the
  // largest recorded value and is clamped to max.
  EXPECT_DOUBLE_EQ(data.Quantile(0.99), 100.0);
}

TEST(HistogramTest, QuantileWithinOneBucketOfTrueValue) {
  Histogram hist;
  for (uint64_t v = 1; v <= 1000; ++v) hist.Record(v);
  // The true median (500) lives in bucket [256, 512); the estimate may not
  // leave that bucket.
  const double p50 = hist.Snapshot().Quantile(0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  Histogram ha, hb, hc;
  for (uint64_t v : {0u, 1u, 5u, 5u, 900u}) ha.Record(v);
  for (uint64_t v : {2u, 3u, 64u}) hb.Record(v);
  for (uint64_t v : {7u, 4096u, 4097u, 1u << 20}) hc.Record(v);
  const HistogramData a = ha.Snapshot();
  const HistogramData b = hb.Snapshot();
  const HistogramData c = hc.Snapshot();

  HistogramData ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramData bc = b;
  bc.Merge(c);
  HistogramData a_bc = a;
  a_bc.Merge(bc);
  HistogramData ba = b;
  ba.Merge(a);
  HistogramData ab = a;
  ab.Merge(b);

  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.max, a_bc.max);
  EXPECT_EQ(ab.buckets, ba.buckets);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.sum, ba.sum);
  EXPECT_EQ(ab.max, ba.max);

  EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
  EXPECT_EQ(ab_c.sum, a.sum + b.sum + c.sum);
  EXPECT_EQ(ab_c.max, uint64_t{1} << 20);
}

TEST(HistogramTest, ToStringGolden) {
  Histogram hist;
  hist.Record(8);
  hist.Record(8);
  hist.Record(8);
  EXPECT_EQ(hist.Snapshot().ToString(),
            "count=3 sum=24 p50=8 p95=8 p99=8 max=8");
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  // Four writers hammer one histogram; every record must land (and TSan,
  // which runs this suite in CI, must see no race).
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8192;
  Histogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramData data = hist.Snapshot();
  EXPECT_EQ(data.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(data.sum, uint64_t{kPerThread} * (1 + 2 + 3 + 4));
  EXPECT_EQ(data.max, 4u);
  // Values 1, 2 land in buckets 1, 2; values 3, 4 in buckets 2, 3.
  EXPECT_EQ(data.buckets[1], uint64_t{kPerThread});
  EXPECT_EQ(data.buckets[2], uint64_t{2 * kPerThread});
  EXPECT_EQ(data.buckets[3], uint64_t{kPerThread});
}

// ---------------------------------------------------------------------------
// Metrics registry + exposition

TEST(MetricsRegistryTest, InstrumentsAreStableAndLabelOrderInsensitive) {
  MetricsRegistry registry;
  obs::Counter* c1 = registry.GetCounter("reqs", {{"a", "1"}, {"b", "2"}});
  obs::Counter* c2 = registry.GetCounter("reqs", {{"b", "2"}, {"a", "1"}});
  obs::Counter* c3 = registry.GetCounter("reqs", {{"a", "1"}, {"b", "3"}});
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);  // label sets are normalized: one instrument
  EXPECT_NE(c1, c3);  // distinct labels: distinct instrument
  c1->Inc(2);
  c2->Inc();
  EXPECT_EQ(c1->value(), 3u);
  EXPECT_EQ(c3->value(), 0u);

  obs::Gauge* g = registry.GetGauge("inflight");
  ASSERT_NE(g, nullptr);
  g->Add(5);
  g->Add(-2);
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(registry.GetGauge("inflight"), g);
}

TEST(MetricsRegistryTest, TypeMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("reqs"), nullptr);
  // A name claimed by one type cannot be reused by another; serving paths
  // treat the null as "metrics off" instead of crashing.
  EXPECT_EQ(registry.GetGauge("reqs"), nullptr);
  EXPECT_EQ(registry.GetHistogram("reqs"), nullptr);
  EXPECT_NE(registry.GetCounter("reqs"), nullptr);
}

TEST(MetricsDumpTest, PrometheusGolden) {
  MetricsDump dump;
  dump.AddCounter("rc_total", {{"tenant", "1"}}, 3, "requests served");
  Histogram hist;
  hist.Record(1);
  hist.Record(8);
  dump.AddHistogram("lat", {}, hist.Snapshot());
  EXPECT_EQ(dump.Render(obs::DumpFormat::kPrometheus),
            "# HELP rc_total requests served\n"
            "# TYPE rc_total counter\n"
            "rc_total{tenant=\"1\"} 3\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"0\"} 0\n"
            "lat_bucket{le=\"1\"} 1\n"
            "lat_bucket{le=\"3\"} 1\n"
            "lat_bucket{le=\"7\"} 1\n"
            "lat_bucket{le=\"15\"} 2\n"
            "lat_bucket{le=\"+Inf\"} 2\n"
            "lat_sum 9\n"
            "lat_count 2\n");
}

TEST(MetricsDumpTest, JsonGoldenCarriesQuantiles) {
  MetricsDump dump;
  Histogram hist;
  hist.Record(1);
  hist.Record(8);
  dump.AddHistogram("lat", {}, hist.Snapshot());
  EXPECT_EQ(dump.Render(obs::DumpFormat::kJson),
            "[\n  {\"name\":\"lat\",\"labels\":{},\"type\":\"histogram\","
            "\"count\":2,\"sum\":9,\"p50\":2,\"p95\":8,\"p99\":8,\"max\":8}"
            "\n]\n");
}

TEST(MetricsDumpTest, PrometheusEscapesLabelValues) {
  MetricsDump dump;
  dump.AddCounter("c", {{"q", "a\"b\\c\nd"}}, 1);
  const std::string text = dump.Render(obs::DumpFormat::kPrometheus);
  EXPECT_NE(text.find("c{q=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Trace phase machine

TraceTime At(uint64_t micros) {
  return TraceTime{} + std::chrono::microseconds(micros);
}

TEST(TraceTest, PhaseTimelineSumsExactlyToTotal) {
  Trace trace(7, At(0));
  trace.Phase("admit", At(0));
  trace.Phase("queue", At(10));
  trace.Phase("evaluate", At(40));
  trace.Mark("eval:worlds", "steps=4096", At(55));
  trace.Phase("cache-store", At(90));
  trace.AnnotatePhase("admitted");
  trace.Finish("YES", At(100));

  EXPECT_TRUE(trace.finished());
  EXPECT_EQ(trace.outcome(), "YES");
  EXPECT_EQ(trace.total_micros(), 100u);
  EXPECT_EQ(trace.dropped_spans(), 0u);

  const std::vector<obs::TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].name, "admit");
  EXPECT_EQ(spans[0].start_micros, 0u);
  EXPECT_EQ(spans[0].end_micros, 10u);
  EXPECT_EQ(spans[1].name, "queue");
  // Spans land in completion order: the zero-width mark is recorded at its
  // instant, the phase it annotates when that phase closes.
  EXPECT_EQ(spans[2].name, "eval:worlds");
  EXPECT_EQ(spans[2].start_micros, 55u);
  EXPECT_EQ(spans[2].end_micros, 55u);
  EXPECT_EQ(spans[2].note, "steps=4096");
  EXPECT_EQ(spans[3].name, "evaluate");
  EXPECT_EQ(spans[3].start_micros, 40u);
  EXPECT_EQ(spans[3].end_micros, 90u);
  EXPECT_EQ(spans[4].name, "cache-store");
  EXPECT_EQ(spans[4].note, "admitted");
  EXPECT_EQ(spans[4].end_micros, 100u);

  // THE invariant: consecutive phases share boundaries and marks are
  // zero-width, so durations sum to the end-to-end total with no gap.
  uint64_t total = 0;
  for (const obs::TraceSpan& span : spans) total += span.duration_micros();
  EXPECT_EQ(total, trace.total_micros());

  const std::string text = trace.ToString();
  EXPECT_NE(text.find("trace#7"), std::string::npos) << text;
  EXPECT_NE(text.find("[0..10us] admit"), std::string::npos) << text;
}

TEST(TraceTest, FinishIsIdempotent) {
  Trace trace(1, At(0));
  trace.Phase("admit", At(0));
  trace.Finish("YES", At(50));
  // A coalesced decision can reach two delivery paths; the first seal wins.
  trace.Finish("no", At(900));
  EXPECT_EQ(trace.outcome(), "YES");
  EXPECT_EQ(trace.total_micros(), 50u);
}

TEST(TraceTest, SpanCapCountsDrops) {
  Trace trace(2, At(0));
  for (uint64_t i = 0; i < 2 * Trace::kMaxSpans; ++i) {
    trace.Phase("p" + std::to_string(i), At(i));
  }
  trace.Finish("ok", At(500));
  EXPECT_LE(trace.spans().size(), Trace::kMaxSpans);
  EXPECT_GT(trace.dropped_spans(), 0u);
  EXPECT_EQ(trace.total_micros(), 500u);
}

TEST(TraceTest, TracerSamplesOneInN) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.MaybeTrace(At(0)), nullptr);

  tracer.Configure(3);
  std::vector<std::shared_ptr<Trace>> traces;
  for (int i = 0; i < 9; ++i) {
    if (std::shared_ptr<Trace> t = tracer.MaybeTrace(At(i))) {
      traces.push_back(std::move(t));
    }
  }
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(tracer.sampled(), 3u);
  EXPECT_NE(traces[0]->id(), traces[1]->id());
  EXPECT_NE(traces[1]->id(), traces[2]->id());
}

// ---------------------------------------------------------------------------
// Slow-decision log

std::shared_ptr<Trace> FinishedTrace(uint64_t id, uint64_t total_micros) {
  auto trace = std::make_shared<Trace>(id, At(0));
  trace->Phase("work", At(0));
  trace->Finish("ok", At(total_micros));
  return trace;
}

SlowEntry EntryOf(uint64_t id, uint64_t micros) {
  SlowEntry entry;
  entry.micros = micros;
  entry.trace_id = id;
  entry.tenant = "7";
  entry.kind = "RCDP_STRONG";
  entry.trace = FinishedTrace(id, micros);
  return entry;
}

TEST(SlowDecisionLogTest, KeepsWorstEntriesBounded) {
  SlowDecisionLog log;
  EXPECT_EQ(log.capacity(), 0u);
  log.Offer(EntryOf(1, 999));  // disabled: dropped
  EXPECT_EQ(log.size(), 0u);

  log.Configure(2);
  log.Offer(EntryOf(1, 10));
  log.Offer(EntryOf(2, 30));
  log.Offer(EntryOf(3, 20));
  log.Offer(EntryOf(4, 40));

  const auto worst = log.Worst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].micros, 40u);
  EXPECT_EQ(worst[1].micros, 30u);
  // The cross-linking identity fields ride each entry.
  EXPECT_EQ(worst[0].trace_id, 4u);
  EXPECT_EQ(worst[0].tenant, "7");
  EXPECT_EQ(worst[0].kind, "RCDP_STRONG");
  ASSERT_NE(worst[0].trace, nullptr);
  EXPECT_EQ(worst[0].trace->total_micros(), 40u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.capacity(), 2u);

  // Entries need no trace at all (the watchdog's stall entries): ranked
  // purely by the stamped micros.
  SlowEntry stall;
  stall.micros = 99;
  stall.note = "watchdog: stalled";
  log.Offer(std::move(stall));
  EXPECT_EQ(log.Worst().front().micros, 99u);
  EXPECT_EQ(log.Worst().front().trace, nullptr);
}

// ---------------------------------------------------------------------------
// Checkpoint progress hook

TEST(CheckpointProgressTest, HookFiresAtStartAndEveryPoll) {
  std::vector<std::pair<std::string, uint64_t>> calls;
  SearchOptions::SearchProgressFn hook =
      [&calls](const char* what, uint64_t steps) {
        calls.emplace_back(what, steps);
      };
  SearchOptions options;
  options.checkpoint_interval = 4;
  options.progress = &hook;

  // The hook alone enables polling: construction announces the loop at
  // steps=0, then every interval-aligned Tick reports progress.
  SearchCheckpoint checkpoint(options, "test-loop");
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::string("test-loop"), uint64_t{0}));
  for (int i = 0; i < 8; ++i) EXPECT_OK(checkpoint.Tick());
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[1].second, 4u);
  EXPECT_EQ(calls[2].second, 8u);

  // No hook, no deadline, no token: polling stays off entirely.
  SearchOptions quiet;
  quiet.checkpoint_interval = 4;
  SearchCheckpoint silent(quiet, "quiet-loop");
  for (int i = 0; i < 8; ++i) EXPECT_OK(silent.Tick());
  EXPECT_EQ(calls.size(), 3u);
}

// ---------------------------------------------------------------------------
// ToString goldens

TEST(CountersGoldenTest, SearchStatsToString) {
  SearchStats stats;
  EXPECT_EQ(stats.ToString(),
            "valuations=0 worlds=0 extensions=0 cc_checks=0 query_evals=0");
  stats.valuations = 1;
  stats.worlds = 2;
  stats.extensions = 3;
  stats.cc_checks = 4;
  stats.query_evals = 5;
  EXPECT_EQ(stats.ToString(),
            "valuations=1 worlds=2 extensions=3 cc_checks=4 query_evals=5");
}

TEST(CountersGoldenTest, EngineCountersCompactElidesZeroSections) {
  EngineCounters counters;
  EXPECT_EQ(counters.ToString(),
            "requests=0 cache_hits=0 cache_misses=0 coalesced=0 errors=0 | "
            "valuations=0 worlds=0 extensions=0 cc_checks=0 query_evals=0");
  counters.requests = 3;
  counters.cache_hits = 1;
  counters.cache_misses = 2;
  counters.rejected = 4;
  counters.waited = 2;
  counters.wait_micros = 10;
  counters.max_wait_micros = 7;
  EXPECT_EQ(counters.ToString(),
            "requests=3 cache_hits=1 cache_misses=2 coalesced=0 errors=0 "
            "rejected=4 avg_wait_us=5 max_wait_us=7 | "
            "valuations=0 worlds=0 extensions=0 cc_checks=0 query_evals=0");
}

TEST(CountersGoldenTest, EngineCountersVerbosePrintsEveryField) {
  EngineCounters counters;
  counters.requests = 1;
  counters.cache_hits = 2;
  counters.cache_misses = 3;
  counters.coalesced = 4;
  counters.errors = 5;
  counters.rejected = 6;
  counters.expired = 7;
  counters.cancelled = 8;
  counters.shed_running = 9;
  counters.aborted_steps = 10;
  counters.waited = 11;
  counters.wait_micros = 12;
  counters.max_wait_micros = 13;
  counters.evictions = 14;
  counters.admission_rejects = 15;
  counters.cache_bytes = 16;
  counters.search.valuations = 17;
  counters.search.worlds = 18;
  counters.search.extensions = 19;
  counters.search.cc_checks = 20;
  counters.search.query_evals = 21;
  EXPECT_EQ(counters.ToString(/*verbose=*/true),
            "requests=1 cache_hits=2 cache_misses=3 coalesced=4 errors=5 "
            "rejected=6 expired=7 cancelled=8 shed_running=9 aborted_steps=10 "
            "waited=11 wait_micros=12 max_wait_micros=13 evictions=14 "
            "admission_rejects=15 cache_bytes=16 | "
            "valuations=17 worlds=18 extensions=19 cc_checks=20 "
            "query_evals=21");
  // Verbose prints zeros too: two dumps always diff line-for-line.
  EngineCounters zero;
  EXPECT_EQ(zero.ToString(/*verbose=*/true),
            "requests=0 cache_hits=0 cache_misses=0 coalesced=0 errors=0 "
            "rejected=0 expired=0 cancelled=0 shed_running=0 aborted_steps=0 "
            "waited=0 wait_micros=0 max_wait_micros=0 evictions=0 "
            "admission_rejects=0 cache_bytes=0 | "
            "valuations=0 worlds=0 extensions=0 cc_checks=0 query_evals=0");
}

// ---------------------------------------------------------------------------
// Layer instrumentation: queue residency, cache event sink

TEST(QueueMetricsTest, PopRecordsQueueResidency) {
  sched::FairQueue queue(sched::SchedPolicy::kFifo,
                         sched::OverloadPolicy::kBlock);
  Histogram queue_wait, token_wait;
  queue.AttachMetrics(&queue_wait, &token_wait);

  for (int i = 0; i < 3; ++i) {
    sched::Task task;
    task.fn = [](sched::TaskOutcome, std::chrono::microseconds) {};
    ASSERT_TRUE(queue.Push(std::move(task)));
  }
  for (int i = 0; i < 3; ++i) {
    sched::Task task;
    sched::TaskOutcome outcome;
    ASSERT_TRUE(queue.Pop(&task, &outcome));
    EXPECT_EQ(outcome, sched::TaskOutcome::kRun);
  }
  // Every pop records its task's residency; nobody blocked on admission.
  EXPECT_EQ(queue_wait.Snapshot().count, 3u);
  EXPECT_EQ(token_wait.Snapshot().count, 0u);
}

TEST(CacheMetricsTest, EventSinkCountsOutcomesAndPublishesGauges) {
  MetricsRegistry registry;
  cache::CacheEventSink sink;
  sink.hits = registry.GetCounter("hits");
  sink.misses = registry.GetCounter("misses");
  sink.evictions = registry.GetCounter("evictions");
  sink.admission_rejects = registry.GetCounter("admission_rejects");
  sink.resident_bytes = registry.GetGauge("resident_bytes");
  sink.resident_entries = registry.GetGauge("resident_entries");

  cache::ShardCache cache(/*max_entries=*/2);
  cache.AttachEvents(sink);

  Decision value;
  value.answer = true;
  Decision out;
  EXPECT_FALSE(cache.Get(RequestCacheKey{1, 1}, &out));
  EXPECT_EQ(sink.misses->value(), 1u);

  EXPECT_TRUE(cache.Put(RequestCacheKey{1, 1}, value));
  EXPECT_TRUE(cache.Get(RequestCacheKey{1, 1}, &out));
  EXPECT_EQ(sink.hits->value(), 1u);
  EXPECT_EQ(sink.resident_entries->value(), 1);
  EXPECT_GT(sink.resident_bytes->value(), 0);

  // Third insert overflows max_entries=2: one eviction, gauges track it.
  // The admission sketch lets the third key in only if it was accessed at
  // least as often as the victim, so it is looked up (and misses) first.
  EXPECT_TRUE(cache.Put(RequestCacheKey{2, 2}, value));
  EXPECT_FALSE(cache.Get(RequestCacheKey{3, 3}, &out));
  EXPECT_TRUE(cache.Put(RequestCacheKey{3, 3}, value));
  EXPECT_EQ(sink.evictions->value(), 1u);
  EXPECT_EQ(sink.resident_entries->value(), 2);
  EXPECT_EQ(sink.admission_rejects->value(), 0u);

  cache.Clear();
  EXPECT_EQ(sink.resident_entries->value(), 0);
  EXPECT_EQ(sink.resident_bytes->value(), 0);
}

// ---------------------------------------------------------------------------
// Service acceptance: traced requests, latency accounting, DumpMetrics

ServiceOptions ObsOptions(size_t workers, uint64_t trace_sample,
                          size_t slow_log) {
  ServiceOptions options;
  options.num_workers = workers;
  options.cache_capacity = 64;
  options.trace_sample = trace_sample;
  options.slow_log = slow_log;
  return options;
}

bool HasSpan(const obs::Trace& trace, const std::string& name,
             const obs::TraceSpan** out = nullptr) {
  static obs::TraceSpan scratch;  // storage for the returned copy
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.name == name) {
      if (out != nullptr) {
        scratch = span;
        *out = &scratch;
      }
      return true;
    }
  }
  return false;
}

TEST(ServiceObsTest, TracedBatchTimelineAccountsForLatencyExactly) {
  AuditFixture fx = MakeAuditFixture();
  CompletenessService service(ObsOptions(/*workers=*/2, /*trace_sample=*/1,
                                         /*slow_log=*/8));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  std::vector<ServiceRequest> requests;
  for (const Query* q : {&fx.by_patient, &fx.all_cities}) {
    DecisionRequest request;
    request.kind = ProblemKind::kRcdpStrong;
    request.query = *q;
    request.cinstance = fx.audited;
    requests.push_back(ServiceRequest{handle, std::move(request)});
  }
  const std::vector<Decision> decisions = service.SubmitBatch(requests);
  ASSERT_EQ(decisions.size(), 2u);
  for (const Decision& decision : decisions) EXPECT_OK(decision.status);

  const auto entries = service.SlowDecisions();
  ASSERT_EQ(entries.size(), 2u);  // sample=1: every submission traced
  std::vector<uint64_t> totals;
  for (const auto& entry : entries) {
    const auto& trace = entry.trace;
    EXPECT_EQ(entry.trace_id, trace->id());
    EXPECT_EQ(entry.micros, trace->total_micros());
    EXPECT_FALSE(entry.tenant.empty());
    EXPECT_FALSE(entry.kind.empty());
    ASSERT_TRUE(trace->finished());
    // The acceptance criterion: the span timeline covers the request's
    // whole life, so durations sum EXACTLY to the end-to-end total (phases
    // share boundary timestamps; marks are zero-width).
    const std::vector<obs::TraceSpan> spans = trace->spans();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans.front().name, "admit");
    uint64_t span_sum = 0;
    for (const obs::TraceSpan& span : spans) span_sum += span.duration_micros();
    EXPECT_EQ(span_sum, trace->total_micros()) << trace->ToString();
    EXPECT_TRUE(HasSpan(*trace, "queue")) << trace->ToString();
    EXPECT_TRUE(HasSpan(*trace, "cache-lookup")) << trace->ToString();
    EXPECT_TRUE(HasSpan(*trace, "evaluate")) << trace->ToString();
    EXPECT_TRUE(HasSpan(*trace, "cache-store")) << trace->ToString();
    totals.push_back(trace->total_micros());
  }

  // Decision::latency_micros and the trace total are stamped from the same
  // clock read, so the two views of end-to-end latency agree exactly.
  std::vector<uint64_t> latencies;
  for (const Decision& decision : decisions) {
    latencies.push_back(decision.latency_micros);
  }
  std::sort(totals.begin(), totals.end());
  std::sort(latencies.begin(), latencies.end());
  EXPECT_EQ(totals, latencies);

  // Resubmitting the same batch hits the cache; the hit's trace shows the
  // lookup outcome and never reaches an evaluate phase.
  const std::vector<Decision> again = service.SubmitBatch(requests);
  for (const Decision& decision : again) EXPECT_TRUE(decision.from_cache);
  bool saw_hit_trace = false;
  for (const auto& entry : service.SlowDecisions()) {
    const auto& trace = entry.trace;
    const obs::TraceSpan* lookup = nullptr;
    if (HasSpan(*trace, "cache-lookup", &lookup) && lookup->note == "hit") {
      EXPECT_FALSE(HasSpan(*trace, "evaluate")) << trace->ToString();
      saw_hit_trace = true;
    }
  }
  EXPECT_TRUE(saw_hit_trace);
}

TEST(ServiceObsTest, DumpMetricsExposesPerTenantLatencyAndOutcomes) {
  AuditFixture fx_a = MakeAuditFixture(0);
  AuditFixture fx_b = MakeAuditFixture(1);
  CompletenessService service(ObsOptions(/*workers=*/2, /*trace_sample=*/2,
                                         /*slow_log=*/4));
  ASSERT_OK_AND_ASSIGN(handle_a, service.RegisterSetting(fx_a.setting));
  ASSERT_OK_AND_ASSIGN(handle_b, service.RegisterSetting(fx_b.setting));

  for (const AuditFixture* fx : {&fx_a, &fx_b}) {
    std::vector<ServiceRequest> requests;
    for (const Query* q : {&fx->by_patient, &fx->all_cities}) {
      DecisionRequest request;
      request.kind = ProblemKind::kRcdpStrong;
      request.query = *q;
      request.cinstance = fx->audited;
      requests.push_back(ServiceRequest{fx == &fx_a ? handle_a : handle_b,
                                        std::move(request)});
    }
    service.SubmitBatch(requests);
  }

  const std::string prom = service.DumpMetrics();
  // Per-tenant end-to-end latency histograms with full bucket series.
  EXPECT_NE(prom.find("# TYPE relcomp_request_latency_micros histogram"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("relcomp_request_latency_micros_count{tenant=\"1\"} 2"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("relcomp_request_latency_micros_count{tenant=\"2\"} 2"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("relcomp_queue_wait_micros"), std::string::npos) << prom;
  // Derived outcome partition: four cold evaluations, no hits yet.
  EXPECT_NE(prom.find(
                "relcomp_decisions_total{outcome=\"miss\",tenant=\"1\"} 2"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find(
                "relcomp_decisions_total{outcome=\"hit\",tenant=\"2\"} 0"),
            std::string::npos) << prom;
  // Cache-layer counters flow through the event sink.
  EXPECT_NE(prom.find("relcomp_cache_misses_total{tenant=\"1\"} 2"),
            std::string::npos) << prom;
  // Nothing is still in flight once SubmitBatch returned.
  EXPECT_NE(prom.find("relcomp_inflight_requests 0"), std::string::npos)
      << prom;
  // trace_sample=2 sampled half of the four submissions.
  EXPECT_NE(prom.find("relcomp_traces_sampled_total 2"), std::string::npos)
      << prom;
  // A family header appears once even with two tenants: rows stay grouped.
  const std::string header = "# TYPE relcomp_request_latency_micros histogram";
  EXPECT_EQ(prom.find(header), prom.rfind(header)) << prom;

  const std::string json = service.DumpMetrics(obs::DumpFormat::kJson);
  EXPECT_NE(json.find("\"name\":\"relcomp_request_latency_micros\""),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

TEST(ServiceObsTest, MetricsOffStillServesDerivedCounters) {
  AuditFixture fx = MakeAuditFixture();
  ServiceOptions options = ObsOptions(/*workers=*/0, /*trace_sample=*/0,
                                      /*slow_log=*/0);
  options.metrics = false;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(fx.setting));

  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;
  service.SubmitBatch({{handle, request}});

  const std::string prom = service.DumpMetrics();
  // Registry families are dark, but the EngineCounters-derived rows (the
  // source of truth for the outcome partition) still render.
  EXPECT_EQ(prom.find("relcomp_request_latency_micros"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("relcomp_decisions_total{outcome=\"miss\",tenant=\"1\"}"
                      " 1"),
            std::string::npos) << prom;
  EXPECT_TRUE(service.SlowDecisions().empty());
}

TEST(ServiceObsTest, CoalescedWaiterTraceRecordsTheJoin) {
  // One worker, one expensive request submitted twice: the second
  // submission must join the first's flight group, and its trace must say
  // so instead of showing an evaluation of its own.
  SlowFixture slow = MakeSlowFixture(/*rows=*/10);
  ServiceOptions options = ObsOptions(/*workers=*/1, /*trace_sample=*/1,
                                      /*slow_log=*/16);
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));

  ServiceRequest request;
  request.setting = handle;
  request.request = slow.Request();
  // Long enough to keep the flight group open across both submissions,
  // bounded so the test finishes quickly (the abort is the expected end).
  request.request.options.max_steps = 1'000'000;

  std::future<Decision> first = service.SubmitAsync(request);
  std::future<Decision> second = service.SubmitAsync(request);
  const Decision d2 = second.get();
  const Decision d1 = first.get();
  EXPECT_EQ(d1.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(d2.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(d2.from_cache);  // served by the coalesced run
  EXPECT_NE(d2.note.find("coalesced"), std::string::npos) << d2.note;

  bool saw_join = false;
  for (const auto& entry : service.SlowDecisions()) {
    const auto& trace = entry.trace;
    const obs::TraceSpan* join = nullptr;
    if (HasSpan(*trace, "coalesce-join", &join)) {
      saw_join = true;
      EXPECT_EQ(join->note.rfind("joined", 0), 0u) << join->note;
      EXPECT_FALSE(HasSpan(*trace, "evaluate")) << trace->ToString();
      EXPECT_TRUE(trace->finished());
    }
  }
  EXPECT_TRUE(saw_join);
}

TEST(ServiceObsTest, EvaluationProgressMarksLandInTraces) {
  // A search long enough to cross checkpoint polls turns them into
  // eval: marks on the sampled trace (SearchCheckpoint's progress hook).
  SlowFixture slow = MakeSlowFixture(/*rows=*/7);
  CompletenessService service(ObsOptions(/*workers=*/0, /*trace_sample=*/1,
                                         /*slow_log=*/4));
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(slow.setting));

  ServiceRequest request;
  request.setting = handle;
  request.request = slow.Request();
  request.request.options.max_steps = 100'000;
  request.request.options.checkpoint_interval = 1024;
  service.SubmitAsync(std::move(request)).get();

  const auto entries = service.SlowDecisions();
  ASSERT_FALSE(entries.empty());
  size_t eval_marks = 0;
  for (const auto& entry : entries) {
    for (const obs::TraceSpan& span : entry.trace->spans()) {
      if (span.name.rfind("eval:", 0) == 0) {
        ++eval_marks;
        EXPECT_EQ(span.start_micros, span.end_micros);  // zero-width mark
      }
    }
  }
  EXPECT_GT(eval_marks, 0u);
}

}  // namespace
}  // namespace relcomp
