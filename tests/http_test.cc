// The live observability endpoint, bottom up.
//
// Parser layer: torn (byte-at-a-time) reads, pipelined requests through
// Consume, the error taxonomy (400/413/431/501/505), keep-alive
// defaults, and response serialization for GET vs HEAD.
//
// Endpoint layer: routing driven through HttpEndpoint::Handle with no
// sockets — 404 with the index body, 405 with Allow, health/readiness,
// unwired surfaces as 503, and the endpoint's self-instrumentation in
// a real MetricsRegistry.
//
// Server layer: real kernel sockets via net::ConnectTcp — torn writes,
// pipelining on one connection, oversized heads answered 431.
//
// Service layer: a two-tenant contended workload scraped concurrently;
// the final /metrics exposition must name every registered family and
// /traces must be a loadable Chrome trace JSON.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/http_server.h"
#include "net/socket.h"
#include "obs/http_endpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "test_util.h"

namespace relcomp {
namespace {

using net::HttpRequest;
using net::HttpRequestParser;
using net::HttpResponse;
using net::ParseState;
using testing::AuditFixture;
using testing::MakeAuditFixture;

// ---------------------------------------------------------------------------
// Parser

constexpr const char kSimpleGet[] =
    "GET /metrics?window=60 HTTP/1.1\r\nHost: localhost\r\n"
    "Accept: text/plain\r\n\r\n";

TEST(HttpParserTest, SimpleGetInOneFeed) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed(kSimpleGet, sizeof(kSimpleGet) - 1),
            ParseState::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics?window=60");
  EXPECT_EQ(request.Path(), "/metrics");
  EXPECT_EQ(request.version, "HTTP/1.1");
  ASSERT_NE(request.FindHeader("host"), nullptr);
  EXPECT_EQ(*request.FindHeader("host"), "localhost");
  EXPECT_TRUE(request.KeepAlive());
  // Consuming the only request leaves the parser hungry again.
  EXPECT_EQ(parser.Consume(), ParseState::kNeedMore);
}

TEST(HttpParserTest, ByteAtATimeReassembles) {
  HttpRequestParser parser;
  const size_t n = sizeof(kSimpleGet) - 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    ASSERT_EQ(parser.Feed(kSimpleGet + i, 1), ParseState::kNeedMore)
        << "byte " << i << " should not complete the request";
  }
  ASSERT_EQ(parser.Feed(kSimpleGet + n - 1, 1), ParseState::kComplete);
  EXPECT_EQ(parser.request().Path(), "/metrics");
}

TEST(HttpParserTest, PipelinedRequestsConsumeInOrder) {
  const std::string two =
      "GET /healthz HTTP/1.1\r\n\r\nGET /readyz HTTP/1.1\r\n\r\n";
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed(two.data(), two.size()), ParseState::kComplete);
  EXPECT_EQ(parser.request().target, "/healthz");
  ASSERT_EQ(parser.Consume(), ParseState::kComplete);
  EXPECT_EQ(parser.request().target, "/readyz");
  EXPECT_EQ(parser.Consume(), ParseState::kNeedMore);
}

TEST(HttpParserTest, TornAcrossPipelineBoundary) {
  // The second request's bytes arrive in the same read as the tail of
  // the first — then its own tail arrives later.
  const std::string first = "GET /a HTTP/1.1\r\n\r\nGET /b HT";
  const std::string rest = "TP/1.1\r\n\r\n";
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed(first.data(), first.size()), ParseState::kComplete);
  EXPECT_EQ(parser.request().target, "/a");
  ASSERT_EQ(parser.Consume(), ParseState::kNeedMore);
  ASSERT_EQ(parser.Feed(rest.data(), rest.size()), ParseState::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(HttpParserTest, OversizedHeadIs431) {
  HttpRequestParser::Limits limits;
  limits.max_head_bytes = 128;
  HttpRequestParser parser(limits);
  std::string huge = "GET / HTTP/1.1\r\nX-Pad: ";
  huge.append(512, 'x');
  ASSERT_EQ(parser.Feed(huge.data(), huge.size()), ParseState::kError);
  EXPECT_EQ(parser.error_code(), 431);
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  const std::string bad = "GET /nowhere\r\n\r\n";  // missing version
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed(bad.data(), bad.size()), ParseState::kError);
  EXPECT_EQ(parser.error_code(), 400);
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  const std::string v2 = "GET / HTTP/2.0\r\n\r\n";
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed(v2.data(), v2.size()), ParseState::kError);
  EXPECT_EQ(parser.error_code(), 505);
}

TEST(HttpParserTest, ChunkedTransferIs501) {
  const std::string chunked =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed(chunked.data(), chunked.size()), ParseState::kError);
  EXPECT_EQ(parser.error_code(), 501);
}

TEST(HttpParserTest, ContentLengthBodyWaitsForAllBytes) {
  const std::string head =
      "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed(head.data(), head.size()), ParseState::kNeedMore);
  ASSERT_EQ(parser.Feed("hel", 3), ParseState::kNeedMore);
  ASSERT_EQ(parser.Feed("lo", 2), ParseState::kComplete);
  EXPECT_EQ(parser.request().body, "hello");
}

TEST(HttpParserTest, OversizedBodyIs413) {
  HttpRequestParser::Limits limits;
  limits.max_body_bytes = 16;
  HttpRequestParser parser(limits);
  const std::string head =
      "POST / HTTP/1.1\r\nContent-Length: 1024\r\n\r\n";
  ASSERT_EQ(parser.Feed(head.data(), head.size()), ParseState::kError);
  EXPECT_EQ(parser.error_code(), 413);
}

TEST(HttpParserTest, KeepAliveDefaultsPerVersion) {
  auto parse = [](const std::string& text) {
    HttpRequestParser parser;
    EXPECT_EQ(parser.Feed(text.data(), text.size()), ParseState::kComplete);
    return parser.request();
  };
  EXPECT_TRUE(parse("GET / HTTP/1.1\r\n\r\n").KeepAlive());
  EXPECT_FALSE(
      parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").KeepAlive());
  EXPECT_FALSE(parse("GET / HTTP/1.0\r\n\r\n").KeepAlive());
  EXPECT_TRUE(
      parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").KeepAlive());
}

TEST(HttpSerializeTest, HeadOmitsBodyButKeepsLength) {
  HttpResponse response;
  response.body = "0123456789";
  const std::string get = SerializeResponse(response, /*head_only=*/false,
                                            /*keep_alive=*/true);
  const std::string head = SerializeResponse(response, /*head_only=*/true,
                                             /*keep_alive=*/false);
  EXPECT_NE(get.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(get.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(get.find("\r\n\r\n0123456789"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_EQ(head.find("0123456789"), std::string::npos);
  EXPECT_NE(head.find("Connection: close\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Endpoint routing (no sockets)

HttpRequest Get(const std::string& target, const std::string& method = "GET") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  return request;
}

TEST(ObsEndpointTest, UnknownPathIs404WithIndex) {
  obs::HttpEndpoint endpoint(obs::ObsSurfaces{}, nullptr);
  HttpResponse response = endpoint.Handle(Get("/nosuch"));
  EXPECT_EQ(response.code, 404);
  EXPECT_NE(response.body.find("/metrics"), std::string::npos)
      << "a 404 should tell the caller what does exist";
}

TEST(ObsEndpointTest, NonGetIs405WithAllow) {
  obs::HttpEndpoint endpoint(obs::ObsSurfaces{}, nullptr);
  HttpResponse response = endpoint.Handle(Get("/metrics", "POST"));
  EXPECT_EQ(response.code, 405);
  bool has_allow = false;
  for (const auto& header : response.extra_headers) {
    if (header.first == "Allow") {
      has_allow = true;
      EXPECT_NE(header.second.find("GET"), std::string::npos);
    }
  }
  EXPECT_TRUE(has_allow);
}

TEST(ObsEndpointTest, HealthAlwaysReadinessGated) {
  std::atomic<bool> ready{false};
  obs::ObsSurfaces surfaces;
  surfaces.ready = [&ready] { return ready.load(); };
  obs::HttpEndpoint endpoint(std::move(surfaces), nullptr);
  EXPECT_EQ(endpoint.Handle(Get("/healthz")).code, 200);
  EXPECT_EQ(endpoint.Handle(Get("/readyz")).code, 503);
  ready = true;
  EXPECT_EQ(endpoint.Handle(Get("/readyz")).code, 200);
}

TEST(ObsEndpointTest, UnwiredSurfaceIs503WiredIsServed) {
  obs::ObsSurfaces surfaces;
  surfaces.metrics_prometheus = [] { return std::string("families\n"); };
  obs::HttpEndpoint endpoint(std::move(surfaces), nullptr);
  HttpResponse metrics = endpoint.Handle(Get("/metrics"));
  EXPECT_EQ(metrics.code, 200);
  EXPECT_EQ(metrics.body, "families\n");
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_EQ(endpoint.Handle(Get("/traces")).code, 503);
  EXPECT_EQ(endpoint.Handle(Get("/report")).code, 503);
}

TEST(ObsEndpointTest, InstrumentsItselfThroughTheRegistry) {
  obs::MetricsRegistry registry;
  obs::ObsSurfaces surfaces;
  obs::HttpEndpoint endpoint(std::move(surfaces), &registry);
  endpoint.Handle(Get("/healthz"));
  endpoint.Handle(Get("/healthz"));
  endpoint.Handle(Get("/nosuch"));

  obs::Counter* ok = registry.GetCounter(
      obs::kMetricHttpRequestsTotal, {{"code", "200"}, {"path", "/healthz"}});
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->value(), 2u);
  // The unknown path lands in the bounded "other" label, never a new one.
  obs::Counter* other = registry.GetCounter(
      obs::kMetricHttpRequestsTotal, {{"code", "404"}, {"path", "other"}});
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->value(), 1u);
  obs::Gauge* inflight = registry.GetGauge(obs::kMetricHttpInflightRequests);
  ASSERT_NE(inflight, nullptr);
  EXPECT_EQ(inflight->value(), 0) << "requests finished, gauge must net out";
}

// ---------------------------------------------------------------------------
// Server over real sockets

/// One blocking round trip: connect, write `raw` (optionally torn into
/// single-byte writes), read until EOF, return the raw response bytes.
std::string RoundTrip(uint16_t port, const std::string& raw,
                      bool byte_at_a_time = false) {
  Result<net::Socket> conn = net::ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  if (!conn.ok()) return "";
  if (byte_at_a_time) {
    for (size_t i = 0; i < raw.size(); ++i) {
      EXPECT_OK(conn->WriteAll(raw.data() + i, 1));
    }
  } else {
    EXPECT_OK(conn->WriteAll(raw.data(), raw.size()));
  }
  std::string response;
  char buf[4096];
  for (;;) {
    Result<size_t> n = conn->Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(buf, *n);
  }
  return response;
}

class EchoServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::HttpServerOptions options;
    options.port = 0;
    options.worker_threads = 2;
    options.max_head_bytes = 512;
    Status started =
        server_.Start(options, [](const HttpRequest& request) {
          HttpResponse response;
          response.body = request.method + " " + request.Path() + "\n";
          return response;
        });
    ASSERT_TRUE(started.ok()) << started.ToString();
  }
  void TearDown() override { server_.Stop(); }

  net::HttpServer server_;
};

TEST_F(EchoServerTest, ServesTornWrites) {
  const std::string response = RoundTrip(
      server_.port(), "GET /torn HTTP/1.1\r\nConnection: close\r\n\r\n",
      /*byte_at_a_time=*/true);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("GET /torn"), std::string::npos);
}

TEST_F(EchoServerTest, ServesPipelinedRequestsInOrder) {
  const std::string response = RoundTrip(
      server_.port(),
      "GET /first HTTP/1.1\r\n\r\n"
      "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n");
  const size_t first = response.find("GET /first");
  const size_t second = response.find("GET /second");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST_F(EchoServerTest, HeadGetsNoBody) {
  const std::string response = RoundTrip(
      server_.port(), "HEAD /h HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length:"), std::string::npos);
  EXPECT_EQ(response.find("HEAD /h\n"), std::string::npos);
}

TEST_F(EchoServerTest, OversizedHeadAnswers431AndCloses) {
  std::string huge = "GET / HTTP/1.1\r\nX-Pad: ";
  huge.append(2048, 'x');
  huge += "\r\n\r\n";
  const std::string response = RoundTrip(server_.port(), huge);
  EXPECT_NE(response.find("431"), std::string::npos);
}

TEST_F(EchoServerTest, MalformedRequestAnswers400) {
  const std::string response = RoundTrip(server_.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(EchoServerTest, StopIsIdempotentAndStopsServing) {
  const uint16_t port = server_.port();
  server_.Stop();
  server_.Stop();
  EXPECT_FALSE(server_.serving());
  Result<net::Socket> conn = net::ConnectTcp("127.0.0.1", port);
  if (conn.ok()) {
    // A connect may still land in the kernel backlog race; the read must
    // see EOF, never a served response.
    const std::string raw = "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
    (void)conn->WriteAll(raw.data(), raw.size());
    char buf[256];
    Result<size_t> n = conn->Read(buf, sizeof(buf));
    EXPECT_TRUE(!n.ok() || *n == 0);
  }
}

// ---------------------------------------------------------------------------
// Full service acceptance

/// GETs `path` from the endpoint, returns the raw response.
std::string Scrape(uint16_t port, const std::string& path) {
  return RoundTrip(port,
                   "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n");
}

std::string BodyOf(const std::string& raw) {
  const size_t split = raw.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : raw.substr(split + 4);
}

TEST(ObsEndpointServiceTest, ContendedScrapeExposesEveryFamily) {
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 256;
  options.trace_sample = 1;
  options.slow_log = 4;
  options.trace_ring = 64;
  CompletenessService service(options);

  obs::ObsHttpOptions http;
  ASSERT_TRUE(service.ServeObs(http).ok());
  const uint16_t port = service.obs_port();
  ASSERT_NE(port, 0);
  // Double-serve is refused, the original endpoint stays up.
  EXPECT_FALSE(service.ServeObs(http).ok());
  EXPECT_EQ(service.obs_port(), port);

  // Not ready before any setting is registered...
  EXPECT_NE(Scrape(port, "/readyz").find("503"), std::string::npos);

  AuditFixture fx_a = MakeAuditFixture(0);
  AuditFixture fx_b = MakeAuditFixture(1);
  ASSERT_OK_AND_ASSIGN(handle_a, service.RegisterSetting(fx_a.setting));
  ASSERT_OK_AND_ASSIGN(handle_b, service.RegisterSetting(fx_b.setting));
  EXPECT_NE(Scrape(port, "/readyz").find("200 OK"), std::string::npos);

  // Two tenants contending, with scrapers hammering /metrics and
  // /traces the whole time.
  std::vector<DecisionRequest> requests;
  for (const Query* q : {&fx_a.by_patient, &fx_a.all_cities}) {
    for (ProblemKind kind : AllProblemKinds()) {
      DecisionRequest request;
      request.kind = kind;
      request.query = *q;
      request.rcqp_max_tuples = 2;
      requests.push_back(std::move(request));
    }
  }
  std::vector<ServiceRequest> batch;
  for (const DecisionRequest& request : requests) {
    DecisionRequest a = request;
    a.cinstance = fx_a.audited;
    DecisionRequest b = request;
    b.cinstance = fx_b.audited;
    batch.push_back(ServiceRequest{handle_a, std::move(a)});
    batch.push_back(ServiceRequest{handle_b, std::move(b)});
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&stop, &scrapes, port, t] {
      // Each scraper completes at least one scrape, however soon the
      // batches end.
      do {
        const std::string raw =
            Scrape(port, t == 0 ? "/metrics" : "/traces");
        EXPECT_NE(raw.find("HTTP/1.1 200"), std::string::npos);
        scrapes.fetch_add(1);
      } while (!stop.load());
    });
  }
  for (int round = 0; round < 4; ++round) {
    std::vector<Decision> decisions = service.SubmitBatch(batch);
    ASSERT_EQ(decisions.size(), batch.size());
  }
  stop = true;
  for (std::thread& scraper : scrapers) scraper.join();
  EXPECT_GE(scrapes.load(), scrapers.size());

  // The final exposition names every registered family.
  const std::string exposition = BodyOf(Scrape(port, "/metrics"));
  for (const obs::MetricFamily* family : obs::AllMetricFamilies()) {
    EXPECT_NE(exposition.find(family->name), std::string::npos)
        << "family missing from /metrics: " << family->name;
  }
  // The endpoint's own instruments are in there too, with real traffic.
  EXPECT_NE(exposition.find(std::string(obs::kMetricHttpRequestsTotal.name) +
                            "{code=\"200\",path=\"/metrics\"}"),
            std::string::npos);

  // /traces parses as a Chrome trace: one JSON object, balanced, with
  // the traceEvents array carrying the sampled spans.
  const std::string traces = BodyOf(Scrape(port, "/traces"));
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(traces.front(), '{');
  EXPECT_NE(traces.find("\"traceEvents\""), std::string::npos);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : traces) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"' && !escaped) in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0) << "trace JSON has unbalanced brackets";

  // The text dashboards serve too.
  EXPECT_NE(Scrape(port, "/report").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(Scrape(port, "/slow").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(Scrape(port, "/debug/active").find("HTTP/1.1 200"),
            std::string::npos);

  service.StopObs();
  EXPECT_EQ(service.obs_port(), 0);
}

}  // namespace
}  // namespace relcomp
