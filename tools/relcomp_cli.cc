// relcomp_cli: batch completeness auditing from the command line.
//
// Loads one or more partially closed settings (schema, master data, CCs,
// instances) plus a stream of queries from program files in the textual
// language of query/parser.h, fans the resulting decision requests through a
// multi-setting CompletenessService, and reports per-query decisions plus
// throughput and cache statistics.
//
//   relcomp_cli setting.rcp [more_queries.rcp ...]
//       [--problem rcdp-strong,rcdp-weak] [--workers N] [--cache N]
//       [--repeat K] [--instance NAME] [--minstance NAME]
//       [--compare] [--witness]
//   relcomp_cli --setting a.rcp --setting b.rcp [more_queries.rcp ...] ...
//
// With --setting flags, every named file contributes its own setting and
// workload; the workloads are interleaved request by request in one batch,
// each routed to its shard by handle (identical settings deduplicate onto
// one shard). Extra positional query files are parsed against each
// setting's declarations (the texts are concatenated), so a query stream
// needs no schema boilerplate.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/socket.h"
#include "service/service.h"
#include "query/parser.h"

using namespace relcomp;

namespace {

struct CliOptions {
  std::vector<std::string> setting_files;  // --setting; else files[0]
  std::vector<std::string> files;          // positional: query streams
  std::vector<ProblemKind> problems = {ProblemKind::kRcdpStrong};
  size_t workers = 4;
  size_t cache = 1024;
  size_t repeat = 1;
  std::string instance_name;
  std::string minstance_name;
  bool compare = false;
  bool witness = false;
  // Scheduler knobs. --weight / --max-queue bind to the most recent
  // --setting (or set the default for all settings when given first).
  sched::SchedPolicy policy = sched::SchedPolicy::kFifo;
  sched::OverloadPolicy overload = sched::OverloadPolicy::kBlock;
  sched::Priority priority = sched::Priority::kNormal;
  uint64_t deadline_ms = 0;  // 0 = none
  uint64_t max_steps = 0;    // 0 = keep the built-in decider budget
  bool checkpoint_set = false;
  uint64_t checkpoint_interval = 0;  // with checkpoint_set: 0 disables
  bool stream = false;
  uint32_t default_weight = 1;
  size_t default_max_queue = 0;  // 0 = unbounded
  std::vector<uint32_t> weights;     // parallel to setting_files
  std::vector<size_t> max_queues;    // parallel to setting_files
  // Cache lifecycle knobs. --cache-floor binds to the most recent --setting
  // (or sets the default), like --weight.
  size_t cache_budget_bytes = 0;  // 0 = unbounded
  size_t default_cache_floor = 0;
  std::vector<size_t> cache_floors;  // parallel to setting_files
  std::string cache_save;  // snapshot path written after the batch
  std::string cache_load;  // snapshot path loaded before registration
  bool cache_stats = false;
  // Observability knobs.
  std::string metrics_dump;   // "" = off, else "prom" | "json"
  uint64_t trace_sample = 0;  // sample every Nth submission (0 = off)
  size_t slow_log = 0;        // keep the N worst traces (0 = off)
  std::string trace_dump;     // write a Chrome/Perfetto trace JSON here
  size_t trace_ring = 0;      // retained traces (0 + --trace-dump = 256)
  bool obs_report = false;    // print the ObsReport() dashboard
  uint64_t recorder_interval_ms = 0;  // flight-recorder cadence (0 = off)
  uint64_t watchdog_stall_us = 0;     // stall threshold (0 = off)
  std::string obs_listen;  // HOST:PORT for the live endpoint ("" = off)
  uint64_t serve_ms = 0;   // keep serving this long after the reports
};

/// One registered setting and its share of the workload.
struct SettingWorkload {
  std::string file;
  PartiallyClosedSetting setting;
  CInstance audited;
  SettingHandle handle;
  std::vector<std::string> labels;
  std::vector<DecisionRequest> requests;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "relcomp_cli: %s\n", message.c_str());
  return 1;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : s) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

/// Picks instances.at(name) — an explicitly requested name that does not
/// exist is a hard error (silently auditing another block would report
/// verdicts about the wrong database). With no name: `fallback`, then the
/// first declared block, then the empty instance over `schema`.
Instance PickInstance(const std::map<std::string, Instance>& instances,
                      const std::string& name, const char* flag,
                      const std::string& fallback,
                      const DatabaseSchema& schema) {
  if (!name.empty()) {
    auto it = instances.find(name);
    if (it == instances.end()) {
      std::fprintf(stderr,
                   "relcomp_cli: %s '%s' names no declared block\n", flag,
                   name.c_str());
      std::exit(1);
    }
    return it->second;
  }
  auto it = instances.find(fallback);
  if (it != instances.end()) return it->second;
  if (!instances.empty()) return instances.begin()->second;
  return Instance(schema);
}

/// Strict decimal parse for flag values; exits with a clean message on
/// anything std::strtoull would swallow or throw on.
size_t ParseCount(const char* flag, const std::string& text) {
  if (text.empty() ||
      !std::isdigit(static_cast<unsigned char>(text.front()))) {
    std::fprintf(stderr, "relcomp_cli: %s expects a number, got '%s'\n", flag,
                 text.c_str());
    std::exit(1);
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    std::fprintf(stderr, "relcomp_cli: %s expects a number, got '%s'\n", flag,
                 text.c_str());
    std::exit(1);
  }
  return static_cast<size_t>(value);
}

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Decision text plus its end-to-end latency (the service stamps every
/// delivery; 0 = never went through the service).
std::string WithLatency(const Decision& decision) {
  std::string out = decision.ToString();
  if (decision.latency_micros != 0) {
    out += "  " + std::to_string(decision.latency_micros) + "us";
  }
  return out;
}

/// Parses one setting file (plus the shared query streams) into a workload.
/// Exits with a message on any parse or file error.
SettingWorkload LoadSetting(const std::string& setting_file,
                            const std::vector<std::string>& query_files,
                            const CliOptions& cli) {
  SettingWorkload load;
  load.file = setting_file;

  std::string setting_text;
  if (!ReadFile(setting_file, &setting_text)) {
    std::exit(Fail("cannot read '" + setting_file + "'"));
  }
  Result<ParsedProgram> base = ParseProgram(setting_text);
  if (!base.ok()) {
    std::exit(Fail(setting_file + ": " + base.status().ToString()));
  }

  std::vector<std::pair<std::string, Query>> workload(base->queries.begin(),
                                                      base->queries.end());
  for (const std::string& query_file : query_files) {
    std::string query_text;
    if (!ReadFile(query_file, &query_text)) {
      std::exit(Fail("cannot read '" + query_file + "'"));
    }
    Result<ParsedProgram> merged =
        ParseProgram(setting_text + "\n" + query_text);
    if (!merged.ok()) {
      std::exit(Fail(query_file + ": " + merged.status().ToString()));
    }
    for (auto& [name, query] : merged->queries) {
      if (base->queries.count(name)) continue;  // setting's own queries
      workload.emplace_back(query_file + ":" + name, query);
    }
  }
  if (workload.empty()) {
    std::exit(Fail("no queries declared in '" + setting_file +
                   "' or the query files"));
  }

  load.setting.schema = base->schema;
  load.setting.master_schema = base->master_schema;
  load.setting.dm = PickInstance(base->minstances, cli.minstance_name,
                                 "--minstance", "dm", base->master_schema);
  load.setting.ccs = base->ccs;
  load.audited = CInstance::FromInstance(
      PickInstance(base->instances, cli.instance_name, "--instance", "db",
                   base->schema));

  for (const auto& [name, query] : workload) {
    for (ProblemKind kind : cli.problems) {
      DecisionRequest request;
      request.kind = kind;
      request.query = query;
      request.cinstance = load.audited;
      request.want_witness = cli.witness;
      if (cli.max_steps != 0) request.options.max_steps = cli.max_steps;
      if (cli.checkpoint_set) {
        request.options.checkpoint_interval = cli.checkpoint_interval;
      }
      load.requests.push_back(std::move(request));
      load.labels.push_back(name + " / " + std::string(ProblemKindName(kind)));
    }
  }
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "relcomp_cli: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--setting") {
      cli.setting_files.push_back(next("--setting"));
      cli.weights.push_back(cli.default_weight);
      cli.max_queues.push_back(cli.default_max_queue);
      cli.cache_floors.push_back(cli.default_cache_floor);
    } else if (arg == "--weight") {
      const size_t weight = ParseCount("--weight", next("--weight"));
      if (cli.weights.empty()) {
        cli.default_weight = static_cast<uint32_t>(weight);
      } else {
        cli.weights.back() = static_cast<uint32_t>(weight);
      }
    } else if (arg == "--max-queue") {
      const size_t quota = ParseCount("--max-queue", next("--max-queue"));
      if (cli.max_queues.empty()) {
        cli.default_max_queue = quota;
      } else {
        cli.max_queues.back() = quota;
      }
    } else if (arg == "--policy") {
      const std::string name = next("--policy");
      if (name == "fifo") {
        cli.policy = sched::SchedPolicy::kFifo;
      } else if (name == "fair") {
        cli.policy = sched::SchedPolicy::kFairShare;
      } else {
        return Fail("--policy expects 'fifo' or 'fair', got '" + name + "'");
      }
    } else if (arg == "--overload") {
      const std::string name = next("--overload");
      if (name == "block") {
        cli.overload = sched::OverloadPolicy::kBlock;
      } else if (name == "reject") {
        cli.overload = sched::OverloadPolicy::kReject;
      } else {
        return Fail("--overload expects 'block' or 'reject', got '" + name +
                    "'");
      }
    } else if (arg == "--priority") {
      const std::string name = next("--priority");
      if (name == "high") {
        cli.priority = sched::Priority::kHigh;
      } else if (name == "normal") {
        cli.priority = sched::Priority::kNormal;
      } else if (name == "low") {
        cli.priority = sched::Priority::kLow;
      } else {
        return Fail("--priority expects high|normal|low, got '" + name + "'");
      }
    } else if (arg == "--deadline-ms") {
      cli.deadline_ms = ParseCount("--deadline-ms", next("--deadline-ms"));
    } else if (arg == "--max-steps") {
      cli.max_steps = ParseCount("--max-steps", next("--max-steps"));
      if (cli.max_steps == 0) {
        return Fail("--max-steps expects a positive step budget");
      }
    } else if (arg == "--checkpoint-interval") {
      cli.checkpoint_interval =
          ParseCount("--checkpoint-interval", next("--checkpoint-interval"));
      cli.checkpoint_set = true;
    } else if (arg == "--stream") {
      cli.stream = true;
    } else if (arg == "--cache-budget-bytes") {
      cli.cache_budget_bytes =
          ParseCount("--cache-budget-bytes", next("--cache-budget-bytes"));
    } else if (arg == "--cache-floor") {
      const size_t floor = ParseCount("--cache-floor", next("--cache-floor"));
      if (cli.cache_floors.empty()) {
        cli.default_cache_floor = floor;
      } else {
        cli.cache_floors.back() = floor;
      }
    } else if (arg == "--cache-save") {
      cli.cache_save = next("--cache-save");
    } else if (arg == "--cache-load") {
      cli.cache_load = next("--cache-load");
    } else if (arg == "--cache-stats") {
      cli.cache_stats = true;
    } else if (arg == "--metrics-dump") {
      cli.metrics_dump = next("--metrics-dump");
      if (cli.metrics_dump != "prom" && cli.metrics_dump != "json") {
        return Fail("--metrics-dump expects 'prom' or 'json', got '" +
                    cli.metrics_dump + "'");
      }
    } else if (arg == "--trace-sample") {
      cli.trace_sample = ParseCount("--trace-sample", next("--trace-sample"));
    } else if (arg == "--slow-log") {
      cli.slow_log = ParseCount("--slow-log", next("--slow-log"));
    } else if (arg == "--trace-dump") {
      cli.trace_dump = next("--trace-dump");
    } else if (arg == "--trace-ring") {
      cli.trace_ring = ParseCount("--trace-ring", next("--trace-ring"));
    } else if (arg == "--obs-report") {
      cli.obs_report = true;
    } else if (arg == "--recorder-interval-ms") {
      cli.recorder_interval_ms = ParseCount("--recorder-interval-ms",
                                            next("--recorder-interval-ms"));
    } else if (arg == "--watchdog-stall-us") {
      cli.watchdog_stall_us =
          ParseCount("--watchdog-stall-us", next("--watchdog-stall-us"));
    } else if (arg == "--obs-listen") {
      cli.obs_listen = next("--obs-listen");
      if (cli.obs_listen.rfind(':') == std::string::npos) {
        return Fail("--obs-listen expects HOST:PORT, got '" + cli.obs_listen +
                    "'");
      }
    } else if (arg == "--serve-ms") {
      cli.serve_ms = ParseCount("--serve-ms", next("--serve-ms"));
    } else if (arg == "--problem") {
      cli.problems.clear();
      for (const std::string& name : SplitCommas(next("--problem"))) {
        Result<ProblemKind> kind = ParseProblemKind(name);
        if (!kind.ok()) return Fail(kind.status().ToString());
        cli.problems.push_back(*kind);
      }
      if (cli.problems.empty()) {
        return Fail("--problem lists no problem kinds");
      }
    } else if (arg == "--workers") {
      cli.workers = ParseCount("--workers", next("--workers"));
    } else if (arg == "--cache") {
      cli.cache = ParseCount("--cache", next("--cache"));
    } else if (arg == "--repeat") {
      cli.repeat = ParseCount("--repeat", next("--repeat"));
    } else if (arg == "--instance") {
      cli.instance_name = next("--instance");
    } else if (arg == "--minstance") {
      cli.minstance_name = next("--minstance");
    } else if (arg == "--compare") {
      cli.compare = true;
    } else if (arg == "--witness") {
      cli.witness = true;
    } else if (arg == "--help" || arg == "-h") {
      std::string kinds;
      for (ProblemKind kind : AllProblemKinds()) {
        if (!kinds.empty()) kinds += " ";
        kinds += ProblemKindName(kind);
      }
      std::printf(
          "usage: relcomp_cli <setting.rcp> [queries.rcp ...]\n"
          "       relcomp_cli --setting a.rcp --setting b.rcp [queries.rcp ...]\n"
          "  --setting FILE    register FILE as a setting (repeatable;\n"
          "                    identical settings share one shard)\n"
          "  --problem K1,K2   problem kinds (%s)\n"
          "  --workers N       shared worker threads (default 4)\n"
          "  --cache N         LRU capacity per setting, 0 disables (default 1024)\n"
          "  --repeat K        submit the workload K times (default 1)\n"
          "  --instance NAME   audited instance block (default: db/first)\n"
          "  --minstance NAME  master data block (default: dm/first)\n"
          "  --compare         also time cold per-call decider dispatch\n"
          "                    (prepares the setting on every call)\n"
          "  --witness         request counterexample witnesses\n"
          "scheduler:\n"
          "  --policy P        queue policy: fifo (default) | fair\n"
          "  --weight W        fair-share weight of the preceding --setting\n"
          "                    (before any --setting: default for all)\n"
          "  --max-queue N     in-queue quota of the preceding --setting,\n"
          "                    0 = unbounded (before any --setting: default)\n"
          "  --overload P      over-quota behavior: block (default) | reject\n"
          "  --priority P      request priority: high | normal | low\n"
          "  --deadline-ms N   deadline per submission round; queued requests\n"
          "                    past it are shed, and RUNNING evaluations abort\n"
          "                    at the next cooperative checkpoint\n"
          "  --max-steps N     decider step budget per request (default %llu;\n"
          "                    exhaustion reports kResourceExhausted)\n"
          "  --checkpoint-interval N\n"
          "                    steps between deadline/cancel polls inside the\n"
          "                    search loops (rounded to a power of two;\n"
          "                    0 disables mid-run aborting)\n"
          "  --stream          deliver decisions incrementally as they\n"
          "                    complete (SubmitStream) instead of one batch\n"
          "cache lifecycle:\n"
          "  --cache-budget-bytes N\n"
          "                    ONE byte budget shared by every setting's\n"
          "                    cache (witness-weighted entries; coldest\n"
          "                    shard evicted first); 0 = unbounded\n"
          "  --cache-floor N   byte floor of the preceding --setting: peer\n"
          "                    budget pressure never evicts it below this\n"
          "                    (before any --setting: default for all)\n"
          "  --cache-load F    load a cache snapshot before registration;\n"
          "                    settings with matching fingerprints warm-\n"
          "                    start and serve prior decisions as hits\n"
          "  --cache-save F    snapshot every setting's cache to F after\n"
          "                    the batch (versioned, checksummed, atomic)\n"
          "  --cache-stats     print per-setting cache stats (entries,\n"
          "                    bytes, hit ratio, evictions, admission\n"
          "                    rejects, restored entries)\n"
          "observability:\n"
          "  --metrics-dump F  print every metric after the batch: 'prom'\n"
          "                    (Prometheus text format) or 'json'\n"
          "  --trace-sample N  sample every Nth submission into a span\n"
          "                    timeline (admit, queue, evaluate, cache\n"
          "                    outcome); 0 = off\n"
          "  --slow-log N      keep and print the N slowest sampled\n"
          "                    request timelines (needs --trace-sample)\n"
          "  --trace-dump F    write retained traces to F as Chrome\n"
          "                    trace_event JSON (open in ui.perfetto.dev);\n"
          "                    per-worker rows nest each evaluation's\n"
          "                    per-loop sub-slices (needs --trace-sample)\n"
          "  --trace-ring N    retain the last N finished traces for\n"
          "                    --trace-dump (default 256 when dumping)\n"
          "  --obs-report      print the operational dashboard (windowed\n"
          "                    rates, active evaluations, flight recorder)\n"
          "  --recorder-interval-ms N  sample system vitals into the\n"
          "                    flight recorder every N ms (0 = off)\n"
          "  --watchdog-stall-us N  flag evaluations whose checkpoints\n"
          "                    stop heartbeating for N us (0 = off)\n"
          "  --obs-listen HOST:PORT\n"
          "                    serve the live observability endpoint\n"
          "                    (/metrics, /traces, /report, /healthz, ...)\n"
          "                    while the batch runs; PORT 0 picks a free\n"
          "                    port and prints it\n"
          "  --serve-ms N      keep the endpoint up N ms after the final\n"
          "                    reports (so a scraper can collect them)\n",
          kinds.c_str(),
          static_cast<unsigned long long>(SearchOptions::kDefaultMaxSteps));
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown flag '" + arg + "' (see --help)");
    } else {
      cli.files.push_back(arg);
    }
  }
  std::vector<std::string> query_files = cli.files;
  if (cli.setting_files.empty()) {
    // Legacy shape: the first positional file is the setting.
    if (cli.files.empty()) return Fail("no input files (see --help)");
    cli.setting_files.push_back(cli.files[0]);
    cli.weights.push_back(cli.default_weight);
    cli.max_queues.push_back(cli.default_max_queue);
    cli.cache_floors.push_back(cli.default_cache_floor);
    query_files.erase(query_files.begin());
  }
  if (cli.repeat == 0) cli.repeat = 1;

  std::vector<SettingWorkload> loads;
  loads.reserve(cli.setting_files.size());
  for (const std::string& setting_file : cli.setting_files) {
    loads.push_back(LoadSetting(setting_file, query_files, cli));
  }

  ServiceOptions service_options;
  service_options.num_workers = cli.workers;
  service_options.cache_capacity = cli.cache;
  service_options.cache_budget_bytes = cli.cache_budget_bytes;
  service_options.policy = cli.policy;
  service_options.overload = cli.overload;
  service_options.default_max_queue = cli.default_max_queue;
  service_options.trace_sample = cli.trace_sample;
  service_options.slow_log = cli.slow_log;
  service_options.trace_ring =
      cli.trace_ring > 0 ? cli.trace_ring
                         : (cli.trace_dump.empty() ? 0 : 256);
  service_options.recorder_interval_ms = cli.recorder_interval_ms;
  service_options.watchdog_stall_micros = cli.watchdog_stall_us;

  CompletenessService service(service_options);
  // Warm start BEFORE registration: staged snapshot entries are replayed
  // into each matching setting's cache as it registers.
  if (!cli.cache_load.empty()) {
    Result<size_t> staged = service.LoadCaches(cli.cache_load);
    if (!staged.ok()) {
      return Fail(cli.cache_load + ": " + staged.status().ToString());
    }
    std::printf("cache snapshot '%s': %zu setting image(s) staged\n",
                cli.cache_load.c_str(), *staged);
  }
  auto prep_start = std::chrono::steady_clock::now();
  for (size_t s = 0; s < loads.size(); ++s) {
    SettingWorkload& load = loads[s];
    ShardOptions shard_options;
    shard_options.weight = cli.weights[s];
    shard_options.max_queue = cli.max_queues[s];
    shard_options.cache_floor_bytes = cli.cache_floors[s];
    Result<SettingHandle> handle =
        service.RegisterSetting(load.setting, shard_options);
    if (!handle.ok()) {
      return Fail(load.file + ": " + handle.status().ToString());
    }
    load.handle = *handle;
  }
  auto prep_end = std::chrono::steady_clock::now();

  // Start the live endpoint BEFORE the batch so scrapes can overlap the
  // contended workload — that concurrency is the whole point of serving.
  if (!cli.obs_listen.empty()) {
    const size_t colon = cli.obs_listen.rfind(':');
    obs::ObsHttpOptions obs_options;
    obs_options.host = cli.obs_listen.substr(0, colon);
    obs_options.port = static_cast<uint16_t>(
        ParseCount("--obs-listen port", cli.obs_listen.substr(colon + 1)));
    Status served = service.ServeObs(obs_options);
    if (!served.ok()) {
      return Fail(cli.obs_listen + ": " + served.ToString());
    }
    std::printf("obs: listening on http://%s:%u/\n", obs_options.host.c_str(),
                service.obs_port());
    std::fflush(stdout);
  }

  // One batch interleaving every setting's requests round-robin — the
  // multi-tenant traffic shape; --repeat resubmits the same batch (the
  // serving-traffic regime) rather than materializing K copies up front.
  std::vector<ServiceRequest> batch;
  std::vector<std::pair<size_t, size_t>> origin;  // batch slot → (load, local)
  size_t widest = 0;
  for (const SettingWorkload& load : loads) {
    widest = std::max(widest, load.requests.size());
  }
  for (size_t k = 0; k < widest; ++k) {
    for (size_t s = 0; s < loads.size(); ++s) {
      if (k >= loads[s].requests.size()) continue;
      ServiceRequest request{loads[s].handle, loads[s].requests[k]};
      request.priority = cli.priority;
      batch.push_back(std::move(request));
      origin.emplace_back(s, k);
    }
  }
  size_t total_requests = batch.size() * cli.repeat;

  // Deadlines are armed per submission round: a --deadline-ms budget is
  // relative to when the round enters the queue, not to process start.
  auto arm_deadlines = [&batch, &cli] {
    if (cli.deadline_ms == 0) return;
    const sched::TimePoint deadline = sched::DeadlineAfterMs(cli.deadline_ms);
    for (ServiceRequest& request : batch) {
      request.request.options.deadline = deadline;
    }
  };

  std::vector<Decision> decisions(batch.size());
  auto batch_start = std::chrono::steady_clock::now();
  if (cli.stream) {
    // Streaming submission: decisions arrive (and print) as they
    // complete, in completion order — no result vector materializes
    // inside the service.
    for (size_t r = 0; r < cli.repeat; ++r) {
      arm_deadlines();
      DecisionStream stream;
      service.SubmitStream(batch, &stream);
      StreamedDecision item;
      size_t arrived = 0;
      while (stream.Next(&item)) {
        if (r == 0) {
          const auto [s, k] = origin[item.index];
          std::printf("stream [%zu/%zu] %s: %-40s %s\n", ++arrived,
                      batch.size(), loads[s].file.c_str(),
                      loads[s].labels[k].c_str(),
                      WithLatency(item.decision).c_str());
          decisions[item.index] = std::move(item.decision);
        }
      }
    }
  } else {
    arm_deadlines();
    decisions = service.SubmitBatch(batch);
    for (size_t r = 1; r < cli.repeat; ++r) {
      arm_deadlines();
      service.SubmitBatch(batch);
    }
  }
  auto batch_end = std::chrono::steady_clock::now();

  // Re-scatter the interleaved decisions per setting for printing.
  std::vector<std::vector<Decision>> per_load(loads.size());
  for (size_t s = 0; s < loads.size(); ++s) {
    per_load[s].resize(loads[s].requests.size());
  }
  for (size_t i = 0; i < decisions.size(); ++i) {
    per_load[origin[i].first][origin[i].second] = decisions[i];
  }

  for (size_t s = 0; s < loads.size(); ++s) {
    const SettingWorkload& load = loads[s];
    std::printf("=== %s: decisions (%zu requests, handle %llu) ===\n",
                load.file.c_str(), load.requests.size(),
                static_cast<unsigned long long>(load.handle.id));
    for (size_t i = 0; i < load.labels.size(); ++i) {
      std::printf("  %-40s %s\n", load.labels[i].c_str(),
                  WithLatency(per_load[s][i]).c_str());
      if (cli.witness && per_load[s][i].witness != nullptr) {
        std::printf("    witness: %s\n",
                    per_load[s][i].witness->note.c_str());
      }
    }
  }

  // Abort causes across the first round's decisions: how many requests were
  // shed/aborted, and why (queue-time vs mid-run is visible in the shard
  // counters' shed_running/aborted_steps fields below).
  size_t n_expired = 0, n_cancelled = 0, n_rejected = 0, n_exhausted = 0;
  for (const Decision& decision : decisions) {
    switch (decision.status.code()) {
      case StatusCode::kDeadlineExceeded: ++n_expired; break;
      case StatusCode::kCancelled: ++n_cancelled; break;
      case StatusCode::kUnavailable: ++n_rejected; break;
      case StatusCode::kResourceExhausted: ++n_exhausted; break;
      default: break;
    }
  }

  double prep_s = Seconds(prep_start, prep_end);
  double batch_s = Seconds(batch_start, batch_end);
  std::printf("\n=== service ===\n");
  if (n_expired + n_cancelled + n_rejected + n_exhausted > 0) {
    std::printf("  aborts       deadline=%zu cancelled=%zu rejected=%zu "
                "budget-exhausted=%zu (of %zu decisions)\n",
                n_expired, n_cancelled, n_rejected, n_exhausted,
                decisions.size());
  }
  std::printf("  settings     %zu registered (%zu distinct shards)\n",
              loads.size(), service.num_settings());
  std::printf("  scheduler    %s policy, %s on overload%s\n",
              cli.policy == sched::SchedPolicy::kFairShare ? "fair-share"
                                                           : "fifo",
              cli.overload == sched::OverloadPolicy::kReject ? "reject"
                                                             : "block",
              cli.stream ? ", streaming delivery" : "");
  std::printf("  prepare      %.3f ms (fingerprint, validation, Adom seed)\n",
              prep_s * 1e3);
  std::printf("  batch        %zu requests in %.3f ms  (%.0f req/s, %zu workers)\n",
              total_requests, batch_s * 1e3,
              batch_s > 0 ? total_requests / batch_s : 0.0, cli.workers);
  // One counters line per distinct shard: files that deduped onto the same
  // handle share one cache and one set of counters, so printing them per
  // file would double-count the shared shard's work.
  std::vector<uint64_t> printed;
  for (const SettingWorkload& load : loads) {
    if (std::find(printed.begin(), printed.end(), load.handle.id) !=
        printed.end()) {
      continue;
    }
    printed.push_back(load.handle.id);
    std::string files;
    for (const SettingWorkload& other : loads) {
      if (other.handle != load.handle) continue;
      if (!files.empty()) files += " = ";
      files += other.file;
    }
    Result<EngineCounters> counters = service.counters(load.handle);
    if (counters.ok()) {
      std::printf("  counters[%s]  %s\n", files.c_str(),
                  counters->ToString().c_str());
    }
    // The EFFECTIVE per-setting cache configuration (kInherit resolved,
    // zeroed when memoization is off) — what the shard actually runs with.
    Result<ShardOptions> resolved = service.shard_options(load.handle);
    if (resolved.ok()) {
      std::printf("  cache[%s]  capacity=%zu floor_bytes=%zu",
                  files.c_str(), resolved->cache_capacity,
                  resolved->cache_floor_bytes);
      if (cli.cache_stats) {
        Result<cache::CacheStats> stats = service.CacheStats(load.handle);
        if (stats.ok()) {
          std::printf(
              " entries=%llu bytes=%llu hit_ratio=%.3f evictions=%llu "
              "admission_rejects=%llu restored=%llu",
              static_cast<unsigned long long>(stats->entries),
              static_cast<unsigned long long>(stats->bytes),
              stats->hit_ratio(),
              static_cast<unsigned long long>(stats->evictions),
              static_cast<unsigned long long>(stats->admission_rejects),
              static_cast<unsigned long long>(stats->restored));
        }
      }
      std::printf("\n");
    }
  }
  std::printf("  counters     %s\n", service.TotalCounters().ToString().c_str());
  if (cli.cache_budget_bytes != 0 || cli.cache_stats) {
    const EngineCounters total = service.TotalCounters();
    std::printf("  cache budget %zu bytes shared, %llu resident\n",
                cli.cache_budget_bytes,
                static_cast<unsigned long long>(total.cache_bytes));
  }
  if (!cli.cache_save.empty()) {
    Status saved = service.SaveCaches(cli.cache_save);
    if (!saved.ok()) {
      return Fail(cli.cache_save + ": " + saved.ToString());
    }
    std::printf("  cache snapshot written to '%s'\n", cli.cache_save.c_str());
  }

  if (cli.slow_log > 0) {
    const auto worst = service.SlowDecisions();
    std::printf("\n=== slow decisions (%zu of %zu kept, slowest first) ===\n",
                worst.size(), cli.slow_log);
    if (cli.trace_sample == 0) {
      std::printf("  (empty: --slow-log needs --trace-sample to feed it)\n");
    }
    for (const auto& entry : worst) {
      std::printf("%llu us  tenant=%s kind=%s%s%s\n",
                  static_cast<unsigned long long>(entry.micros),
                  entry.tenant.c_str(), entry.kind.c_str(),
                  entry.trace_id != 0
                      ? ("  trace#" + std::to_string(entry.trace_id)).c_str()
                      : "",
                  entry.note.empty() ? "" : ("  " + entry.note).c_str());
      if (entry.profile != nullptr) {
        std::printf("  search: %s\n", entry.profile->ToString().c_str());
      }
      if (entry.trace != nullptr) {
        std::printf("%s\n", entry.trace->ToString().c_str());
      }
    }
  }

  if (!cli.trace_dump.empty()) {
    std::ofstream out(cli.trace_dump, std::ios::binary | std::ios::trunc);
    if (!out) return Fail(cli.trace_dump + ": cannot open for writing");
    out << service.DumpTraces();
    if (!out.flush()) return Fail(cli.trace_dump + ": write failed");
    std::printf("\n  trace timeline written to '%s' (open in "
                "ui.perfetto.dev)\n",
                cli.trace_dump.c_str());
  }

  if (cli.obs_report) {
    std::printf("\n%s", service.ObsReport().c_str());
  }

  if (cli.compare) {
    auto cold_start = std::chrono::steady_clock::now();
    size_t mismatches = 0;
    for (size_t r = 0; r < cli.repeat; ++r) {
      for (size_t i = 0; i < batch.size(); ++i) {
        // The request as loaded, without the round's deadline: the cold
        // oracle runs after the batch, past any --deadline-ms.
        const auto [s, k] = origin[i];
        Decision cold = DecideCold(loads[s].requests[k], loads[s].setting);
        if (r == 0 && (cold.status.ok() != decisions[i].status.ok() ||
                       (cold.status.ok() &&
                        cold.answer != decisions[i].answer))) {
          ++mismatches;
        }
      }
    }
    auto cold_end = std::chrono::steady_clock::now();
    double cold_s = Seconds(cold_start, cold_end);
    std::printf(
        "\n=== cold per-call dispatch (prepares the setting every call) ===\n");
    std::printf("  %zu requests in %.3f ms  (%.0f req/s)\n", total_requests,
                cold_s * 1e3, cold_s > 0 ? total_requests / cold_s : 0.0);
    std::printf("  speedup      %.2fx%s\n",
                batch_s > 0 ? cold_s / batch_s : 0.0,
                mismatches == 0 ? "  (answers agree)"
                                : "  (ANSWER MISMATCH!)");
    if (mismatches != 0) return 2;
  }

  // Metrics last: the dump reflects everything above, including --compare.
  if (!cli.metrics_dump.empty()) {
    std::printf("\n=== metrics (%s) ===\n%s", cli.metrics_dump.c_str(),
                service
                    .DumpMetrics(cli.metrics_dump == "json"
                                     ? obs::DumpFormat::kJson
                                     : obs::DumpFormat::kPrometheus)
                    .c_str());
  }
  if (!cli.obs_listen.empty() && cli.serve_ms > 0) {
    std::printf("\nobs: serving http://127.0.0.1:%u/ for %llu ms more "
                "(Ctrl-C to stop)\n",
                service.obs_port(),
                static_cast<unsigned long long>(cli.serve_ms));
    std::fflush(stdout);
    net::SleepForMs(cli.serve_ms);
  }
  return 0;
}
