// The single source of truth for every `relcomp_*` metric family the
// service exposes: name, instrument type, label keys, and help text.
//
// Nothing outside this header may spell a `relcomp_*` metric name as a
// string literal — relcomp_lint rule `metric-registry` enforces that, and
// also checks this table against the README "Metric reference" table
// (name, type, and label set must match row for row), so the registry, the
// code, and the documentation cannot drift apart silently.
//
// The families live in one X-macro list so the constants, the
// AllMetricFamilies() enumeration, and the lint/test tooling all read the
// same rows. To add a metric: add an X(...) row here, add the matching row
// to the README table, and use the generated kMetric<Sym> constant at the
// call site (via the MetricFamily overloads on MetricsRegistry /
// MetricsDump). relcomp_lint fails the build if any of the three diverge.
#ifndef RELCOMP_OBS_METRIC_NAMES_H_
#define RELCOMP_OBS_METRIC_NAMES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace relcomp {
namespace obs {

/// How a family renders in the exposition formats. kRate is a derived
/// floating-point reading (rendered as a Prometheus gauge; see
/// MetricsDump::AddRate) — it never lives in the registry proper.
enum class MetricKind { kCounter, kGauge, kHistogram, kRate };

/// One registered family. `labels` is the comma-joined label KEY list in
/// call-site order ("" = unlabeled); values are per-instrument.
struct MetricFamily {
  const char* name;
  MetricKind kind;
  const char* labels;
  const char* help;
};

// clang-format off
/// Every metric family in the system: X(Symbol, name, kind, labels, help).
/// Windowed families are enumerated per concrete window so each exported
/// name appears here (and in the README table) exactly once.
#define RELCOMP_METRIC_FAMILIES(X)                                           \
  X(RequestLatencyMicros, "relcomp_request_latency_micros", kHistogram,      \
    "tenant", "end-to-end latency, submission to delivery, microseconds")    \
  X(QueueWaitMicros, "relcomp_queue_wait_micros", kHistogram, "tenant",      \
    "scheduler queue residency of this tenant's tasks, microseconds")        \
  X(SchedQueueWaitMicros, "relcomp_sched_queue_wait_micros", kHistogram,     \
    "", "in-queue residency of every popped task, microseconds")             \
  X(SchedTokenWaitMicros, "relcomp_sched_token_wait_micros", kHistogram,     \
    "",                                                                      \
    "time producers spent blocked on the tenant's queue quota before a "     \
    "task was admitted, microseconds")                                       \
  X(RequestsTotal, "relcomp_requests_total", kCounter, "tenant,kind",        \
    "requests submitted, by problem kind")                                   \
  X(PriorityRequestsTotal, "relcomp_priority_requests_total", kCounter,      \
    "tenant,priority", "requests submitted, by scheduling priority class")   \
  X(DecisionsTotal, "relcomp_decisions_total", kCounter, "outcome,tenant",   \
    "request outcomes; the five outcomes partition requests exactly")        \
  X(ErrorsTotal, "relcomp_errors_total", kCounter, "tenant",                 \
    "decider errors (not part of the outcome partition: an errored "         \
    "evaluation still counts as a miss)")                                    \
  X(CacheHitsTotal, "relcomp_cache_hits_total", kCounter, "tenant",          \
    "shard cache lookup hits")                                               \
  X(CacheMissesTotal, "relcomp_cache_misses_total", kCounter, "tenant",      \
    "shard cache lookup misses")                                             \
  X(CacheEvictionsTotal, "relcomp_cache_evictions_total", kCounter,          \
    "tenant",                                                                \
    "cache entries evicted under capacity or shared-budget pressure")        \
  X(CacheAdmissionRejectsTotal, "relcomp_cache_admission_rejects_total",     \
    kCounter, "tenant", "computed decisions the cache refused to admit")     \
  X(CacheResidentBytes, "relcomp_cache_resident_bytes", kGauge, "tenant",    \
    "resident cache bytes")                                                  \
  X(CacheResidentEntries, "relcomp_cache_resident_entries", kGauge,          \
    "tenant", "resident cache entries")                                      \
  X(InflightRequests, "relcomp_inflight_requests", kGauge, "",               \
    "requests currently executing inside the service")                       \
  X(TracesSampledTotal, "relcomp_traces_sampled_total", kCounter, "",        \
    "requests sampled into a span-timeline trace")                           \
  X(SlowLogEntries, "relcomp_slow_log_entries", kGauge, "",                  \
    "finished traces currently held by the slow-decision log")               \
  X(WatchdogStallsTotal, "relcomp_watchdog_stalls_total", kCounter, "",      \
    "running evaluations flagged by the stall watchdog")                     \
  X(TraceRingEntries, "relcomp_trace_ring_entries", kGauge, "",              \
    "finished traces retained for DumpTraces()")                             \
  X(TraceRingDroppedTotal, "relcomp_trace_ring_dropped_total", kCounter,     \
    "", "finished traces overwritten in the export ring")                    \
  X(SearchStepsTotal, "relcomp_search_steps_total", kCounter,                \
    "tenant,kind,loop",                                                      \
    "search checkpoint steps charged, by core search loop")                  \
  X(SearchLoopMicros, "relcomp_search_loop_micros", kHistogram,              \
    "tenant,loop",                                                           \
    "time one evaluation spent inside a core search loop, microseconds")     \
  X(RequestsRate1s, "relcomp_requests_rate1s", kRate, "",                    \
    "delivered requests/sec over the trailing 1s, all tenants")              \
  X(RequestsRate10s, "relcomp_requests_rate10s", kRate, "",                  \
    "delivered requests/sec over the trailing 10s, all tenants")             \
  X(RequestsRate60s, "relcomp_requests_rate60s", kRate, "",                  \
    "delivered requests/sec over the trailing 60s, all tenants")             \
  X(TenantRequestsRate1s, "relcomp_tenant_requests_rate1s", kRate,           \
    "tenant", "delivered requests/sec over the trailing 1s")                 \
  X(TenantRequestsRate10s, "relcomp_tenant_requests_rate10s", kRate,         \
    "tenant", "delivered requests/sec over the trailing 10s")                \
  X(TenantRequestsRate60s, "relcomp_tenant_requests_rate60s", kRate,         \
    "tenant", "delivered requests/sec over the trailing 60s")                \
  X(RequestLatencyRecent10sMicros,                                           \
    "relcomp_request_latency_recent10s_micros", kHistogram, "",              \
    "end-to-end latency of requests delivered in the trailing 10s, all "     \
    "tenants, microseconds")                                                 \
  X(RequestLatencyRecent60sMicros,                                           \
    "relcomp_request_latency_recent60s_micros", kHistogram, "",              \
    "end-to-end latency of requests delivered in the trailing 60s, all "     \
    "tenants, microseconds")                                                 \
  X(HttpRequestsTotal, "relcomp_http_requests_total", kCounter,              \
    "code,path",                                                             \
    "observability endpoint requests served, by path and response code")     \
  X(HttpInflightRequests, "relcomp_http_inflight_requests", kGauge, "",      \
    "observability endpoint requests currently being handled")               \
  X(HttpHandlerLatencyMicros, "relcomp_http_handler_latency_micros",         \
    kHistogram, "path",                                                      \
    "observability endpoint handler latency (route + render + dump locks), " \
    "microseconds")                                                          \
  X(BuildInfo, "relcomp_build_info", kGauge, "git,version",                  \
    "always 1; the labels identify the running binary")                      \
  X(UptimeSeconds, "relcomp_uptime_seconds", kGauge, "",                     \
    "seconds since this CompletenessService was constructed")
// clang-format on

#define RELCOMP_OBS_DECLARE_METRIC(sym, name, kind, labels, help) \
  inline constexpr MetricFamily kMetric##sym{name, MetricKind::kind, labels, \
                                             help};
RELCOMP_METRIC_FAMILIES(RELCOMP_OBS_DECLARE_METRIC)
#undef RELCOMP_OBS_DECLARE_METRIC

/// Every family in declaration order, for tests and exposition tooling.
inline const std::vector<const MetricFamily*>& AllMetricFamilies() {
  static const std::vector<const MetricFamily*> kAll = [] {
    std::vector<const MetricFamily*> all;
#define RELCOMP_OBS_LIST_METRIC(sym, name, kind, labels, help) \
  all.push_back(&kMetric##sym);
    RELCOMP_METRIC_FAMILIES(RELCOMP_OBS_LIST_METRIC)
#undef RELCOMP_OBS_LIST_METRIC
    return all;
  }();
  return kAll;
}

/// The windowed families, addressed by their window width — the dump loop
/// iterates {1, 10, 60} and needs the matching registered family rather
/// than a name built by string concatenation (which the lint would flag).
inline const MetricFamily& RequestsRateFamily(uint64_t secs) {
  switch (secs) {
    case 1:
      return kMetricRequestsRate1s;
    case 10:
      return kMetricRequestsRate10s;
    default:
      return kMetricRequestsRate60s;
  }
}

inline const MetricFamily& TenantRequestsRateFamily(uint64_t secs) {
  switch (secs) {
    case 1:
      return kMetricTenantRequestsRate1s;
    case 10:
      return kMetricTenantRequestsRate10s;
    default:
      return kMetricTenantRequestsRate60s;
  }
}

inline const MetricFamily& RecentLatencyFamily(uint64_t secs) {
  return secs == 10 ? kMetricRequestLatencyRecent10sMicros
                    : kMetricRequestLatencyRecent60sMicros;
}

}  // namespace obs
}  // namespace relcomp

#endif  // RELCOMP_OBS_METRIC_NAMES_H_
