#include "obs/http_endpoint.h"

#include <chrono>
#include <utility>

namespace relcomp {
namespace obs {

namespace {

constexpr const char* kPromContentType =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kJsonContentType = "application/json";
constexpr const char* kTextContentType = "text/plain; charset=utf-8";

/// Every routable path. Doubles as the bounded label vocabulary for the
/// endpoint's own metrics: an unknown path records as "other", so a
/// scanner probing random URLs cannot grow the label space.
constexpr const char* kKnownPaths[] = {
    "/",       "/healthz", "/readyz", "/metrics",      "/metrics.json",
    "/traces", "/slow",    "/report", "/debug/active",
};

const char* kIndexBody =
    "relcomp live observability endpoint\n"
    "\n"
    "  /metrics        Prometheus text exposition (every registered family)\n"
    "  /metrics.json   the same dump as JSON (histograms carry p50/p95/p99)\n"
    "  /traces         finished request traces, Chrome trace-event JSON\n"
    "                  (load in ui.perfetto.dev or chrome://tracing)\n"
    "  /slow           worst end-to-end decisions currently retained\n"
    "  /report         the ObsReport dashboard (vitals, tenants, recorder)\n"
    "  /debug/active   evaluations running right now, with heartbeat ages\n"
    "  /healthz        liveness (200 while the endpoint serves)\n"
    "  /readyz         readiness (200 once settings are registered and the\n"
    "                  worker pool is live, 503 before)\n";

net::HttpResponse TextResponse(int code, const std::string& body,
                               const char* content_type) {
  net::HttpResponse response;
  response.code = code;
  response.content_type = content_type;
  response.body = body;
  return response;
}

/// Renders one surface callback, or 503 when it was never wired.
net::HttpResponse FromSurface(const std::function<std::string()>& surface,
                              const char* content_type) {
  if (surface == nullptr) {
    return TextResponse(503, "503 surface not wired\n", kTextContentType);
  }
  return TextResponse(200, surface(), content_type);
}

}  // namespace

HttpEndpoint::HttpEndpoint(ObsSurfaces surfaces, MetricsRegistry* registry)
    : surfaces_(std::move(surfaces)), registry_(registry) {}

HttpEndpoint::~HttpEndpoint() { Stop(); }

Status HttpEndpoint::Start(const ObsHttpOptions& options) {
  if (registry_ != nullptr) {
    // Pre-create the endpoint's instruments for every routable path so
    // the very first scrape already lists all three families — a
    // monitoring system should never have to request twice to learn
    // what exists.
    inflight_ = registry_->GetGauge(kMetricHttpInflightRequests);
    for (const char* path : kKnownPaths) {
      registry_->GetHistogram(kMetricHttpHandlerLatencyMicros,
                              {{"path", path}});
      registry_->GetCounter(kMetricHttpRequestsTotal,
                            {{"code", "200"}, {"path", path}});
    }
  }
  net::HttpServerOptions server_options;
  server_options.host = options.host;
  server_options.port = options.port;
  server_options.worker_threads = options.worker_threads;
  server_options.max_head_bytes = options.max_head_bytes;
  return server_.Start(server_options, [this](const net::HttpRequest& request) {
    return Handle(request);
  });
}

void HttpEndpoint::Stop() { server_.Stop(); }

net::HttpResponse HttpEndpoint::Handle(const net::HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  if (inflight_ != nullptr) inflight_->Add(1);

  const char* path_label = "other";
  net::HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response = TextResponse(405, "405 " +
                                     std::string(net::HttpStatusReason(405)) +
                                     ": use GET or HEAD\n",
                            kTextContentType);
    response.extra_headers.emplace_back("Allow", "GET, HEAD");
    // Still attribute the request to the path it aimed at (if known).
    Route(request.Path(), &path_label);
  } else {
    response = Route(request.Path(), &path_label);
  }

  if (inflight_ != nullptr) inflight_->Add(-1);
  if (registry_ != nullptr) {
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    Histogram* latency = registry_->GetHistogram(
        kMetricHttpHandlerLatencyMicros, {{"path", path_label}});
    if (latency != nullptr) latency->Record(static_cast<uint64_t>(micros));
    Counter* requests = registry_->GetCounter(
        kMetricHttpRequestsTotal,
        {{"code", std::to_string(response.code)}, {"path", path_label}});
    if (requests != nullptr) requests->Inc();
  }
  return response;
}

net::HttpResponse HttpEndpoint::Route(const std::string& path,
                                      const char** path_label) {
  for (const char* known : kKnownPaths) {
    if (path == known) {
      *path_label = known;
      break;
    }
  }
  if (path == "/") {
    return TextResponse(200, kIndexBody, kTextContentType);
  }
  if (path == "/healthz") {
    return TextResponse(200, "ok\n", kTextContentType);
  }
  if (path == "/readyz") {
    const bool ready = surfaces_.ready == nullptr || surfaces_.ready();
    return ready ? TextResponse(200, "ready\n", kTextContentType)
                 : TextResponse(503, "not ready\n", kTextContentType);
  }
  if (path == "/metrics") {
    return FromSurface(surfaces_.metrics_prometheus, kPromContentType);
  }
  if (path == "/metrics.json") {
    return FromSurface(surfaces_.metrics_json, kJsonContentType);
  }
  if (path == "/traces") {
    return FromSurface(surfaces_.traces_json, kJsonContentType);
  }
  if (path == "/slow") {
    return FromSurface(surfaces_.slow_text, kTextContentType);
  }
  if (path == "/report") {
    return FromSurface(surfaces_.report_text, kTextContentType);
  }
  if (path == "/debug/active") {
    return FromSurface(surfaces_.active_text, kTextContentType);
  }
  return TextResponse(404, "404 " + std::string(net::HttpStatusReason(404)) +
                               "\n\n" + kIndexBody,
                      kTextContentType);
}

}  // namespace obs
}  // namespace relcomp
