// Experiment OBS-2: the cost of being scraped.
//
// The live observability endpoint promises that serving /metrics and
// /traces never slows the decision path: a scrape renders a dump on an
// endpoint worker thread and takes exactly the snapshot locks the
// corresponding Dump* call always took, never a lock a decision holds
// for long. This file measures the warm-batch service workload from
// OBS-1 under three configurations:
//
//   no-endpoint  — full-obs service, endpoint never started (baseline);
//   idle         — endpoint listening, nobody scraping (the standing
//                  cost of the listener + worker threads);
//   scraped      — a client hammering GET /metrics and GET /traces
//                  back-to-back over real sockets for the whole run.
//
// baseline vs idle bounds the cost of just having the port open;
// baseline vs scraped bounds the worst-case scrape interference. Both
// gaps should stay within run-to-run noise.
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "net/socket.h"
#include "obs/http_endpoint.h"
#include "service/service.h"

namespace relcomp {
namespace {

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

/// One blocking GET against the endpoint; returns false when the
/// connection failed (endpoint gone — scraper should stop).
bool ScrapeOnce(uint16_t port, const char* path) {
  Result<net::Socket> conn = net::ConnectTcp("127.0.0.1", port);
  if (!conn.ok()) return false;
  const std::string raw =
      std::string("GET ") + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
  if (!conn->WriteAll(raw.data(), raw.size()).ok()) return false;
  char buf[16 * 1024];
  for (;;) {
    Result<size_t> n = conn->Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    benchmark::DoNotOptimize(buf[0]);
  }
  return true;
}

enum class Endpoint { kOff, kIdle, kScraped };

void RunScrapeAb(benchmark::State& state, Endpoint mode) {
  PartiallyClosedSetting setting =
      MakeAuditSetting(static_cast<int>(state.range(0)));
  std::vector<DecisionRequest> workload = MakeWorkload(setting.schema);
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 0;  // warm path: every request evaluates
  options.trace_sample = 1;
  options.slow_log = 16;
  options.trace_ring = 256;
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

  std::atomic<bool> stop{false};
  std::thread scraper;
  if (mode != Endpoint::kOff) {
    obs::ObsHttpOptions http;  // loopback, ephemeral port
    Status served = service.ServeObs(http);
    if (!served.ok()) {
      state.SkipWithError(served.ToString().c_str());
      return;
    }
    if (mode == Endpoint::kScraped) {
      const uint16_t port = service.obs_port();
      scraper = std::thread([&stop, port] {
        while (!stop.load(std::memory_order_relaxed)) {
          if (!ScrapeOnce(port, "/metrics")) break;
          if (!ScrapeOnce(port, "/traces")) break;
        }
      });
    }
  }

  for (auto _ : state) {
    std::vector<Decision> decisions = service.SubmitBatch(batch);
    benchmark::DoNotOptimize(decisions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));

  stop = true;
  if (scraper.joinable()) scraper.join();
  service.StopObs();
}

void BM_Service_Batch_NoEndpoint(benchmark::State& state) {
  RunScrapeAb(state, Endpoint::kOff);
}
BENCHMARK(BM_Service_Batch_NoEndpoint)->Arg(256)->Arg(2048);

void BM_Service_Batch_EndpointIdle(benchmark::State& state) {
  RunScrapeAb(state, Endpoint::kIdle);
}
BENCHMARK(BM_Service_Batch_EndpointIdle)->Arg(256)->Arg(2048);

void BM_Service_Batch_EndpointScraped(benchmark::State& state) {
  RunScrapeAb(state, Endpoint::kScraped);
}
BENCHMARK(BM_Service_Batch_EndpointScraped)->Arg(256)->Arg(2048);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
