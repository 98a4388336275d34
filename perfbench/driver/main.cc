// perfbench_driver: runs one benchmark workload in-process against the
// relcomp library and writes its measurements as JSON. perfbench/run.py
// builds and invokes it; perfbench/README.md describes the workloads and
// metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --out FILE
//                    [--work DIR] [--trace --spans FILE]
//   perfbench_driver --digest --workload NAME --seed N
//
// Untraced runs time set-up (the median of several fresh set-ups) and a
// closed-loop phase of S seconds. A traced run first repeats the untraced
// phase (the baseline for the tracing overhead), then runs the same inputs
// on a service with per-request tracing on, recording a span around every
// call it makes into a layer, and finally replays the first calls' distinct
// requests through each layer's public functions.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/fingerprint.h"
#include "driver/workloads.h"
#include "service/service.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace relcomp {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMinSetups = 11;     // fresh set-ups timed per run, at least
constexpr size_t kMaxSetups = 1001;   // ... and at most
constexpr double kSetupBudget = 1.0;  // seconds of set-ups to aim for
constexpr auto kWarmup = std::chrono::seconds(2);
constexpr auto kRotation = std::chrono::milliseconds(50);
constexpr size_t kOutstanding = 2;  // SubmitAsync calls in flight
constexpr size_t kLatencySamples = 1 << 20;  // reservoir capacity
constexpr size_t kTraceRing = 20000;        // service traces kept
constexpr size_t kCallRing = 20000;         // call spans kept
constexpr size_t kRequestsInDigest = 4096;
constexpr int kCheapReps = 8;      // replayed fingerprint / Adom builds
constexpr int kOperatorReps = 32;  // replayed CC checks / query evaluations

double Micros(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear interpolation between the closest ranks of sorted `v`.
double Percentile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int CountThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HostJson() {
  std::string compiler =
#if defined(__clang__)
      "clang ";
#elif defined(__GNUC__)
      "gcc ";
#else
      "";
#endif
  compiler += __VERSION__;
  const bool lock_rank_checks = RELCOMP_LOCK_RANK_CHECKS != 0;
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu_model\":" + Quote(CpuModel()) +
         ",\"compiler\":" + Quote(compiler) +
         ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE) +
         ",\"lock_rank_checks\":" + (lock_rank_checks ? "true" : "false") +
         "}";
}

std::string StatsJson(const SearchStats& s) {
  return "{\"valuations\":" + std::to_string(s.valuations) +
         ",\"worlds\":" + std::to_string(s.worlds) +
         ",\"extensions\":" + std::to_string(s.extensions) +
         ",\"cc_checks\":" + std::to_string(s.cc_checks) +
         ",\"query_evals\":" + std::to_string(s.query_evals) + "}";
}

/// Fixed-size uniform sample of call latencies: constant memory whatever
/// the call rate, so the harness adds the same resident set to every run.
class Reservoir {
 public:
  Reservoir(uint64_t seed, size_t capacity) : values_(capacity), rng_(seed) {}

  void Add(double v) {
    if (count_ < values_.size()) {
      values_[count_] = v;
    } else {
      const uint64_t j = rng_.Below(count_ + 1);
      if (j < values_.size()) values_[j] = v;
    }
    ++count_;
  }

  std::vector<double> Sorted() const {
    const size_t n = std::min<uint64_t>(count_, values_.size());
    std::vector<double> out(values_.begin(),
                            values_.begin() + static_cast<std::ptrdiff_t>(n));
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<double> values_;
  Rng rng_;
  uint64_t count_ = 0;
};

/// Spans recorded by the traced run, kept in memory and written at the end.
class SpanLog {
 public:
  int64_t NewId() { return next_id_++; }

  void Add(int64_t id, const char* name, Clock::time_point start,
           Clock::time_point end, int64_t parent, int64_t request,
           const std::string& attrs = "") {
    std::string line = "{\"id\":" + std::to_string(id) +
                       ",\"name\":" + Quote(name) +
                       ",\"start_us\":" + Num(Micros(start)) +
                       ",\"end_us\":" + Num(Micros(end)) +
                       ",\"parent\":" + std::to_string(parent) +
                       ",\"request\":" + std::to_string(request);
    if (!attrs.empty()) line += "," + attrs;
    spans_.push_back(line + "}");
  }

  /// Call spans go to a ring: a long phase keeps only its last kCallRing.
  void AddCall(std::string line) {
    calls_.push_back(std::move(line));
    if (calls_.size() > kCallRing) calls_.pop_front();
  }

  void Write(std::ostream& out) const {
    out << "\"spans\":[\n";
    bool first = true;
    auto write = [&](const std::string& s) {
      out << (first ? "" : ",\n") << s;
      first = false;
    };
    for (const std::string& s : spans_) write(s);
    for (const std::string& s : calls_) write(s);
    out << "\n]";
  }

 private:
  int64_t next_id_ = 1;
  std::vector<std::string> spans_;
  std::deque<std::string> calls_;
};

/// RAII span around one call into a layer: the clock stops at Close() (or
/// destruction) and the span is logged at destruction, so attributes set
/// after Close() still land on it.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int64_t parent, int64_t request)
      : log_(log),
        name_(name),
        parent_(parent),
        request_(request),
        id_(log != nullptr ? log->NewId() : 0),
        start_(Clock::now()) {}
  ~Scope() {
    Close();
    if (log_ != nullptr) {
      log_->Add(id_, name_, start_, end_, parent_, request_, attrs_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int64_t id() const { return id_; }
  void set_attrs(std::string attrs) { attrs_ = std::move(attrs); }
  /// Stops the clock (once); returns the span's duration in seconds.
  double Close() {
    if (!closed_) {
      end_ = Clock::now();
      closed_ = true;
    }
    return Seconds(end_ - start_);
  }

 private:
  SpanLog* log_;
  const char* name_;
  int64_t parent_;
  int64_t request_;
  int64_t id_;
  Clock::time_point start_;
  Clock::time_point end_;
  std::string attrs_;
  bool closed_ = false;
};

/// Moves the process's threads round the CPUs in step: in round r, thread
/// k may run only on CPU (k + r) mod n. On a shared host one CPU can run
/// 1.5x slower than another for minutes, and a busy thread stays on the CPU
/// it started on, so a run's speed would depend on where its threads
/// happened to land. Rotating every kRotation makes every run, and every
/// long call, sample all CPUs alike. The destructor restores each thread's
/// CPU set. Best effort: when the kernel refuses, rotation stops.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    // The calling (generator) thread first, then the pool in creation order.
    const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
    tids_.push_back(self);
    if (DIR* dir = opendir("/proc/self/task")) {
      std::vector<pid_t> others;
      while (dirent* entry = readdir(dir)) {
        const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
        if (tid > 0 && tid != self) others.push_back(tid);
      }
      closedir(dir);
      std::sort(others.begin(), others.end());
      tids_.insert(tids_.end(), others.begin(), others.end());
    }
  }
  ~CpuRotation() {
    for (pid_t tid : tids_) sched_setaffinity(tid, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Rotates when the current round has lasted kRotation.
  void Tick(Clock::time_point now) {
    if (now < next_) return;
    next_ = now + kRotation;
    Step();
  }

  void Step() {
    if (cpus_.empty()) return;
    for (size_t k = 0; k < tids_.size(); ++k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[(k + round_) % cpus_.size()], &one);
      if (sched_setaffinity(tids_[k], sizeof(one), &one) != 0) {
        std::fprintf(stderr, "perfbench: CPU rotation off (%s)\n",
                     std::strerror(errno));
        cpus_.clear();
        return;
      }
    }
    ++round_;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::vector<pid_t> tids_;
  size_t round_ = 0;
  Clock::time_point next_{};
};

/// A service ready to serve, with one handle per tenant.
struct Serving {
  std::unique_ptr<CompletenessService> service;
  std::vector<SettingHandle> handles;
  uint64_t async_submissions = 0;  ///< SubmitAsync calls made so far
};

/// Empty service → ready to serve: construction, LoadCaches of `snapshot`
/// (warm starts only; empty = none), and RegisterSetting for every tenant.
/// Setting copies are made before the clock starts (RegisterSetting takes
/// its setting by value).
Serving SetUp(const Workload& w, const ServiceOptions& options,
              const std::string& snapshot, SpanLog* log, double* seconds) {
  std::vector<PartiallyClosedSetting> settings;
  for (const Tenant& t : w.tenants) settings.push_back(t.setting);
  Serving s;
  Scope setup(log, "setup", 0, -1);
  {
    Scope construct(log, "service.construct", setup.id(), -1);
    s.service = std::make_unique<CompletenessService>(options);
  }
  if (!snapshot.empty()) {
    Scope load(log, "cache.LoadCaches", setup.id(), -1);
    Result<size_t> loaded = s.service->LoadCaches(snapshot);
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadCaches: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(2);
    }
  }
  for (size_t t = 0; t < settings.size(); ++t) {
    Scope reg(log, "service.RegisterSetting", setup.id(),
              static_cast<int64_t>(t));
    Result<SettingHandle> handle = s.service->RegisterSetting(
        std::move(settings[t]), w.tenants[t].options);
    if (!handle.ok()) {
      std::fprintf(stderr, "RegisterSetting: %s\n",
                   handle.status().ToString().c_str());
      std::exit(2);
    }
    s.handles.push_back(*handle);
  }
  *seconds = setup.Close();
  return s;
}

/// What a sequence of calls measured.
struct CallStats {
  CallStats(uint64_t seed, size_t samples) : latency_ms(seed, samples) {}
  Reservoir latency_ms;
  uint64_t calls = 0;
  uint64_t decisions = 0;
  uint64_t failed = 0;
  uint64_t warmup_decisions = 0;  ///< checked too, but not timed
  int threads = -1;
  /// Decisions completed in each second of the timed phase, by completion
  /// time: shows whether a run's speed drifted. Kept only once
  /// `phase_start` is set.
  Clock::time_point phase_start{};
  std::vector<uint64_t> per_second;
};

/// The traced run's view of a call sequence: call spans, plus the distinct
/// requests of the first `replay_calls` calls.
struct CallTrace {
  SpanLog* log = nullptr;
  int64_t parent = 0;
  size_t replay_calls = 0;
  std::vector<std::shared_ptr<const Item>> replay;
  std::set<uint32_t> replay_ids;
};

void Check(const Item& item, const Decision& d, CallStats* stats) {
  ++stats->decisions;
  if (d.status.ok() && d.answer == item.expected) return;
  if (++stats->failed <= 5) {
    std::fprintf(stderr,
                 "FAILED decision: tenant=%zu kind=%s expected=%s got=%s\n"
                 "  query: %s\n  c-instance: %s\n",
                 item.tenant, ProblemKindName(item.request.kind),
                 item.expected ? "YES" : "no", d.ToString().c_str(),
                 item.request.query.ToString().c_str(),
                 item.request.cinstance.ToString().c_str());
  }
}

void RecordCall(const std::shared_ptr<const Item>* items,
                const Decision* decisions, size_t n, Clock::time_point start,
                Clock::time_point end, uint64_t trace_id, CallStats* stats,
                CallTrace* trace) {
  ++stats->calls;
  stats->latency_ms.Add(
      std::chrono::duration<double, std::milli>(end - start).count());
  for (size_t i = 0; i < n; ++i) Check(*items[i], decisions[i], stats);
  if (stats->calls == 1) stats->threads = CountThreads();
  if (stats->phase_start != Clock::time_point{}) {
    const size_t second = static_cast<size_t>(
        std::max(0.0, Seconds(end - stats->phase_start)));
    if (second >= stats->per_second.size()) {
      stats->per_second.resize(second + 1);
    }
    stats->per_second[second] += n;
  }
  if (trace == nullptr) return;
  std::string ids;
  std::string evaluated;
  for (size_t i = 0; i < n; ++i) {
    ids += (i == 0 ? "" : ",") + std::to_string(items[i]->id);
    evaluated += (i == 0 ? "" : ",");
    evaluated += decisions[i].from_cache ? "0" : "1";
    if (stats->calls <= trace->replay_calls &&
        trace->replay_ids.insert(items[i]->id).second) {
      trace->replay.push_back(items[i]);
    }
  }
  const int64_t request = n == 1 ? items[0]->id : -1;
  trace->log->AddCall(
      "{\"id\":" + std::to_string(trace->log->NewId()) +
      ",\"name\":\"call\",\"start_us\":" + Num(Micros(start)) +
      ",\"end_us\":" + Num(Micros(end)) +
      ",\"parent\":" + std::to_string(trace->parent) +
      ",\"request\":" + std::to_string(request) +
      ",\"trace_id\":" + std::to_string(trace_id) + ",\"items\":[" + ids +
      "],\"evaluated\":[" + evaluated + "]}");
}

/// Closed loop: makes calls until `deadline`, then waits for the
/// outstanding replies. Requests are copied into ServiceRequests before each
/// call's clock starts.
void RunCalls(const Workload& w, Serving& s, Clock::time_point deadline,
              CpuRotation* rotation, CallStats* stats, CallTrace* trace) {
  auto more = [&] {
    const Clock::time_point now = Clock::now();
    rotation->Tick(now);
    return now < deadline;
  };
  if (w.batch > 0) {
    while (more()) {
      std::vector<std::shared_ptr<const Item>> items;
      std::vector<ServiceRequest> batch;
      for (size_t i = 0; i < w.batch; ++i) {
        items.push_back(w.next());
        batch.push_back(ServiceRequest{s.handles[items.back()->tenant],
                                       items.back()->request});
      }
      const Clock::time_point start = Clock::now();
      std::vector<Decision> decisions = s.service->SubmitBatch(batch);
      const Clock::time_point end = Clock::now();
      RecordCall(items.data(), decisions.data(), items.size(), start, end, 0,
                 stats, trace);
    }
    return;
  }
  // One slot per outstanding call. The completion callback runs on a pool
  // worker, or inline inside SubmitAsync when the request resolves at
  // admission (a cache hit); either way it stamps the reply's arrival and
  // hands the slot back through `done`.
  struct Slot {
    std::shared_ptr<const Item> item;
    Clock::time_point start;
    Clock::time_point end;
    uint64_t trace_id = 0;
    Decision decision;
  };
  std::vector<Slot> slots(kOutstanding);
  std::vector<size_t> free_slots;
  for (size_t i = 0; i < slots.size(); ++i) free_slots.push_back(i);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> done;  // guarded by mu
  std::vector<size_t> finished;
  size_t in_flight = 0;
  // Records the replies that arrived; with `block`, first waits for one.
  // Draining after every submission gives every call the same context: a
  // hit completes inside SubmitAsync and is recorded before the next call.
  auto drain = [&](bool block) {
    {
      std::unique_lock<std::mutex> lock(mu);
      while (block &&
             !cv.wait_for(lock, kRotation, [&done] { return !done.empty(); })) {
        rotation->Tick(Clock::now());
      }
      finished.swap(done);
    }
    for (size_t i : finished) {
      Slot& slot = slots[i];
      RecordCall(&slot.item, &slot.decision, 1, slot.start, slot.end,
                 slot.trace_id, stats, trace);
      slot.item.reset();
      free_slots.push_back(i);
      --in_flight;
    }
    finished.clear();
  };
  while (true) {
    while (!free_slots.empty() && more()) {
      const size_t i = free_slots.back();
      free_slots.pop_back();
      Slot& slot = slots[i];
      slot.item = w.next();
      ServiceRequest request{s.handles[slot.item->tenant], slot.item->request};
      // With trace_sample = 1 the tracer numbers traces 1, 2, ... in
      // submission order.
      slot.trace_id = ++s.async_submissions;
      ++in_flight;
      slot.start = Clock::now();
      s.service->SubmitAsync(std::move(request),
                             [&slots, &mu, &cv, &done, i](Decision d) {
                               slots[i].end = Clock::now();
                               slots[i].decision = std::move(d);
                               // Notify under the lock: once the generator
                               // sees the slot, nothing here touches the
                               // generator's locals again.
                               std::lock_guard<std::mutex> lock(mu);
                               done.push_back(i);
                               cv.notify_one();
                             });
      drain(false);
    }
    if (in_flight == 0) break;
    drain(true);
  }
}

/// Field-wise difference of two counter snapshots (the request partition
/// and wait figures of one phase).
EngineCounters Delta(const EngineCounters& after,
                     const EngineCounters& before) {
  EngineCounters d;
  d.requests = after.requests - before.requests;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.coalesced = after.coalesced - before.coalesced;
  d.errors = after.errors - before.errors;
  d.waited = after.waited - before.waited;
  d.wait_micros = after.wait_micros - before.wait_micros;
  d.max_wait_micros = after.max_wait_micros;
  return d;
}

cache::CacheStats SumCacheStats(const Serving& s) {
  cache::CacheStats sum;
  for (SettingHandle h : s.handles) {
    Result<cache::CacheStats> st = s.service->CacheStats(h);
    if (!st.ok()) continue;
    sum.entries += st->entries;
    sum.bytes += st->bytes;
    sum.hits += st->hits;
    sum.misses += st->misses;
    sum.evictions += st->evictions;
    sum.admission_rejects += st->admission_rejects;
    sum.restored += st->restored;
  }
  return sum;
}

std::string CountersJson(const EngineCounters& c,
                         const cache::CacheStats& before,
                         const cache::CacheStats& after) {
  return "{\"requests\":" + std::to_string(c.requests) +
         ",\"cache_hits\":" + std::to_string(c.cache_hits) +
         ",\"cache_misses\":" + std::to_string(c.cache_misses) +
         ",\"coalesced\":" + std::to_string(c.coalesced) +
         ",\"errors\":" + std::to_string(c.errors) +
         ",\"waited\":" + std::to_string(c.waited) +
         ",\"wait_micros\":" + std::to_string(c.wait_micros) +
         ",\"max_wait_micros\":" + std::to_string(c.max_wait_micros) +
         ",\"cache_lookup_hits\":" + std::to_string(after.hits - before.hits) +
         ",\"cache_lookup_misses\":" +
         std::to_string(after.misses - before.misses) +
         ",\"evictions\":" +
         std::to_string(after.evictions - before.evictions) +
         ",\"admission_rejects\":" +
         std::to_string(after.admission_rejects - before.admission_rejects) +
         ",\"resident_entries\":" + std::to_string(after.entries) +
         ",\"resident_bytes\":" + std::to_string(after.bytes) + "}";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool digest = false;
  std::string out;
  std::string spans;
  std::string work = ".";
};

/// The "earlier service" of a warm start: decides the whole working set
/// (untimed) and saves its caches for the set-ups to load.
std::string SaveWarmSnapshot(const Workload& w, const Options& o) {
  const std::string path = o.work + "/" + w.name + "-" +
                           std::to_string(o.seed) + ".rccs";
  double ignored = 0;
  Serving warmer = SetUp(w, w.options, "", nullptr, &ignored);
  std::vector<ServiceRequest> batch;
  for (const Item& item : *w.working_set) {
    batch.push_back(ServiceRequest{warmer.handles[item.tenant], item.request});
  }
  std::vector<Decision> decisions = warmer.service->SubmitBatch(batch);
  for (size_t i = 0; i < decisions.size(); ++i) {
    const Item& item = (*w.working_set)[i];
    if (!decisions[i].status.ok() || decisions[i].answer != item.expected) {
      std::fprintf(stderr, "warm-up decision %zu disagrees with its verdict\n",
                   i);
      std::exit(2);
    }
  }
  Status saved = warmer.service->SaveCaches(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveCaches: %s\n", saved.ToString().c_str());
    std::exit(2);
  }
  return path;
}

struct PhaseResult {
  double phase_s = 0;
  double decisions_per_s = 0;
  EngineCounters counters;
  cache::CacheStats cache_before;
  cache::CacheStats cache_after;
};

/// Set-up (untimed), warm-up and the timed phase. The warm-up keeps the
/// pool and the generator busy for kWarmup first: on a shared host a CPU
/// that was idle can run at half speed for about a second once it gets
/// busy again. Threads rotate across the CPUs from the warm-up on. `log`
/// (traced runs) receives spans.
PhaseResult RunPhase(const Workload& w, const ServiceOptions& options,
                     const std::string& snapshot, const Options& o,
                     CallStats* stats, SpanLog* log, CallTrace* trace,
                     Serving* serving) {
  PhaseResult r;
  double ignored = 0;
  *serving = SetUp(w, options, snapshot, log, &ignored);
  CpuRotation rotation;  // after SetUp: the pool's threads exist

  CallStats warmup(o.seed, 1);
  RunCalls(w, *serving, Clock::now() + kWarmup, &rotation, &warmup, nullptr);
  stats->warmup_decisions += warmup.decisions;
  stats->failed += warmup.failed;

  const EngineCounters before = serving->service->TotalCounters();
  r.cache_before = SumCacheStats(*serving);
  Scope phase(log, "phase", 0, -1);
  if (trace != nullptr) trace->parent = phase.id();
  const Clock::time_point start = Clock::now();
  stats->phase_start = start;
  RunCalls(w, *serving,
           start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(o.seconds)),
           &rotation, stats, trace);
  r.phase_s = Seconds(Clock::now() - start);
  phase.Close();
  r.decisions_per_s = static_cast<double>(stats->decisions) / r.phase_s;
  r.counters = Delta(serving->service->TotalCounters(), before);
  r.cache_after = SumCacheStats(*serving);
  return r;
}

/// Fresh set-ups, timed one by one after the timed phase (so none of them
/// runs on a CPU that is still waking up), each on the next CPU: at least
/// kMinSetups, and more until they add up to kSetupBudget. Each service is
/// torn down untimed. Call with no other thread running.
std::vector<double> TimeSetUps(const Workload& w, const ServiceOptions& options,
                               const std::string& snapshot, SpanLog* log,
                               size_t max_setups) {
  std::vector<double> samples;
  double total = 0;
  CpuRotation rotation;
  while (samples.size() < max_setups &&
         (samples.size() < kMinSetups || total < kSetupBudget)) {
    rotation.Step();
    double seconds = 0;
    Serving s = SetUp(w, options, snapshot, log, &seconds);
    samples.push_back(seconds);
    total += seconds;
  }
  return samples;
}

/// Grounds `cinstance` by a valuation drawn from each variable's candidate
/// values (rows whose condition fails under it drop out).
Instance SampleWorld(const CInstance& cinstance, const AdomContext& adom,
                     Rng& rng) {
  Valuation mu;
  for (const CTable& table : cinstance.tables()) {
    for (const CRow& row : table.rows()) {
      for (size_t col = 0; col < row.cells.size(); ++col) {
        if (!std::holds_alternative<VarId>(row.cells[col])) continue;
        const VarId var = std::get<VarId>(row.cells[col]);
        if (mu.IsBound(var)) continue;
        const std::vector<Value>& candidates =
            adom.Candidates(table.schema().attribute(col).domain);
        mu.Bind(var, candidates[rng.Below(candidates.size())]);
      }
    }
  }
  for (VarId var : cinstance.Vars()) {
    if (!mu.IsBound(var)) mu.Bind(var, adom.values().front());
  }
  Result<Instance> world = cinstance.Apply(mu);
  return world.ok() ? *world : Instance(cinstance.schema());
}

/// Replays each distinct request through the layers' public functions,
/// one span per call.
void Replay(const Workload& w, Serving& s, const CallTrace& calls,
            const Options& o, SpanLog* log, uint64_t* failed) {
  Scope replay(log, "replay", 0, -1);
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    for (int rep = 0; rep < 3; ++rep) {
      PartiallyClosedSetting copy = w.tenants[t].setting;
      Scope prepare(log, "core.Prepare", replay.id(), static_cast<int64_t>(t));
      Result<PreparedSetting> prepared =
          PreparedSetting::Prepare(std::move(copy));
      if (!prepared.ok()) ++*failed;
    }
  }
  if (!w.warm_start) {
    // Time LoadCaches on this run's own cache contents, into fresh services.
    const std::string path = o.work + "/" + w.name + "-" +
                             std::to_string(o.seed) + "-replay.rccs";
    if (s.service->SaveCaches(path).ok()) {
      for (int rep = 0; rep < 3; ++rep) {
        CompletenessService fresh(w.options);
        Scope load(log, "cache.LoadCaches", replay.id(), -1);
        if (!fresh.LoadCaches(path).ok()) ++*failed;
      }
    }
    std::remove(path.c_str());
  }
  Rng rng(o.seed ^ 0x5eedULL);
  for (const std::shared_ptr<const Item>& item : calls.replay) {
    const SettingHandle handle = s.handles[item->tenant];
    Result<PreparedSetting> prepared = s.service->prepared(handle);
    if (!prepared.ok()) {
      ++*failed;
      continue;
    }
    const DecisionRequest& request = item->request;
    Scope one(log, "replay.request", replay.id(), item->id);
    // Cheap calls are timed over `reps` back-to-back repetitions, as the
    // decider loops call them: warm, on the same data.
    auto repeat = [&](const char* name, int reps, const auto& call) {
      Scope span(log, name, one.id(), item->id);
      for (int i = 0; i < reps; ++i) {
        if (!call()) ++*failed;
      }
      span.set_attrs("\"reps\":" + std::to_string(reps));
    };
    repeat("service.FingerprintRequest", kCheapReps, [&] {
      return s.service->FingerprintRequest(handle, request).ok();
    });
    repeat("core.BuildAdom", kCheapReps, [&] {
      return !prepared->BuildAdom(request.cinstance, &request.query)
                  .values()
                  .empty();
    });
    const AdomContext adom =
        prepared->BuildAdom(request.cinstance, &request.query);
    {
      SearchOptions options = request.options;
      SearchProfile profile;
      options.profile = &profile;
      Scope span(log, "core.EvaluateRequest", one.id(), item->id);
      profile.Start();
      Decision d = EvaluateRequest(request, *prepared, &options);
      profile.Finish();
      span.Close();
      if (!d.status.ok() || d.answer != item->expected) ++*failed;
      std::string loops;
      for (const SearchProfile::LoopTotal& total : profile.totals()) {
        loops += (loops.empty() ? "" : ",") + Quote(total.loop) +
                 ":{\"us\":" + std::to_string(total.micros) +
                 ",\"steps\":" + std::to_string(total.steps) + "}";
      }
      span.set_attrs("\"stats\":" + StatsJson(d.stats) + ",\"loops\":{" +
                     loops + "}");
    }
    const Instance world = SampleWorld(request.cinstance, adom, rng);
    repeat("core.SatisfiesCCs", kOperatorReps,
           [&] { return prepared->SatisfiesCCs(world).ok(); });
    repeat("query.Eval", kOperatorReps,
           [&] { return request.query.Eval(world, adom.values()).ok(); });
  }
}

uint64_t Digest(const Workload& w) {
  StableHasher h;
  h.Mix(w.name);
  for (const Tenant& t : w.tenants) {
    h.Mix(FingerprintSetting(t.setting));
    h.Mix(static_cast<uint64_t>(t.options.weight));
    h.Mix(static_cast<uint64_t>(t.options.cache_capacity));
  }
  for (size_t i = 0; i < kRequestsInDigest; ++i) {
    std::shared_ptr<const Item> item = w.next();
    h.Mix(static_cast<uint64_t>(item->tenant));
    h.Mix(ProblemKindName(item->request.kind));
    h.Mix(FingerprintQuery(item->request.query));
    h.Mix(FingerprintCInstance(item->request.cinstance));
    h.Mix(static_cast<uint64_t>(item->request.want_witness ? 1 : 0));
    h.Mix(static_cast<uint64_t>(item->expected ? 1 : 0));
  }
  return h.digest();
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--trace") {
      o->trace = true;
    } else if (arg == "--digest") {
      o->digest = true;
    } else if (arg == "--workload") {
      if (!value(&o->workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      o->seconds = std::atof(v.c_str());
    } else if (arg == "--out") {
      if (!value(&o->out)) return false;
    } else if (arg == "--spans") {
      if (!value(&o->spans)) return false;
    } else if (arg == "--work") {
      if (!value(&o->work)) return false;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && (o->digest || !o->out.empty()) &&
         (!o->trace || !o->spans.empty());
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--out FILE [--work DIR] [--trace --spans FILE]\n"
                 "       perfbench_driver --digest --workload NAME --seed N\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(o.workload, o.seed, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (o.digest) {
    std::printf("%016" PRIx64 "\n", Digest(w));
    return 0;
  }

  const std::string snapshot = w.warm_start ? SaveWarmSnapshot(w, o) : "";
  CallStats stats(o.seed, kLatencySamples);
  Serving serving;
  PhaseResult r =
      RunPhase(w, w.options, snapshot, o, &stats, nullptr, nullptr, &serving);
  serving.service.reset();
  const std::vector<double> setup_samples =
      TimeSetUps(w, w.options, snapshot, nullptr, kMaxSetups);
  const int threads = stats.threads;
  std::vector<double> latencies = stats.latency_ms.Sorted();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::ofstream out(o.out);
  std::string per_second;
  for (uint64_t n : stats.per_second) {
    per_second += (per_second.empty() ? "" : ",") + std::to_string(n);
  }
  std::string setups;
  for (double s : setup_samples) setups += (setups.empty() ? "" : ",") + Num(s);
  out << "{\"workload\":" << Quote(w.name) << ",\"seed\":" << o.seed
      << ",\"seconds\":" << Num(o.seconds) << ",\"host\":" << HostJson()
      << ",\"threads\":" << threads << ",\"workers\":" << w.options.num_workers
      << ",\"calls\":" << stats.calls << ",\"decisions\":" << stats.decisions
      << ",\"checked\":" << stats.decisions + stats.warmup_decisions
      << ",\"failed\":" << stats.failed << ",\"phase_s\":" << Num(r.phase_s)
      << ",\"decisions_per_s\":" << Num(r.decisions_per_s)
      << ",\"decisions_per_second\":[" << per_second << "]"
      << ",\"latency_samples\":" << latencies.size()
      << ",\"latency_p50_ms\":" << Num(Percentile(latencies, 0.50))
      << ",\"latency_p90_ms\":" << Num(Percentile(latencies, 0.90))
      << ",\"latency_p99_ms\":" << Num(Percentile(latencies, 0.99))
      << ",\"setup_s\":" << Num(Median(setup_samples))
      << ",\"setup_samples_s\":[" << setups
      << "],\"peak_rss_mb\":"
      << Num(static_cast<double>(usage.ru_maxrss) / 1024.0) << ",\"counters\":"
      << CountersJson(r.counters, r.cache_before, r.cache_after);
  if (o.trace) {
    // The same seed and inputs again, on a traced service.
    Workload tw;
    MakeWorkload(o.workload, o.seed, &tw);
    ServiceOptions traced = tw.options;
    traced.trace_sample = 1;
    traced.trace_ring = kTraceRing;
    SpanLog log;
    CallTrace calls;
    calls.log = &log;
    calls.replay_calls = tw.replay_calls;
    CallStats tstats(o.seed, kLatencySamples);
    Serving ts;
    PhaseResult tr =
        RunPhase(tw, traced, snapshot, o, &tstats, &log, &calls, &ts);
    const std::string service_traces = ts.service->DumpTraces();
    uint64_t replay_failed = 0;
    Replay(tw, ts, calls, o, &log, &replay_failed);
    ts.service.reset();
    TimeSetUps(tw, traced, snapshot, &log, kMinSetups);
    std::ofstream spans(o.spans);
    spans << "{\"workload\":" << Quote(w.name) << ",\"seed\":" << o.seed
          << ",\"host\":" << HostJson()
          << ",\"workers\":" << tw.options.num_workers
          << ",\"batch\":" << tw.batch
          << ",\"untraced\":{\"decisions_per_s\":" << Num(r.decisions_per_s)
          << "},\"traced\":{\"decisions_per_s\":" << Num(tr.decisions_per_s)
          << ",\"calls\":" << tstats.calls
          << ",\"decisions\":" << tstats.decisions
          << ",\"failed\":" << tstats.failed
          << ",\"replay_failed\":" << replay_failed
          << ",\"counters\":"
          << CountersJson(tr.counters, tr.cache_before, tr.cache_after)
          << "},\n";
    log.Write(spans);
    spans << ",\n\"service_traces\":" << service_traces << "}\n";
    out << ",\"traced_checked\":"
        << tstats.decisions + tstats.warmup_decisions + calls.replay.size()
        << ",\"traced_failed\":" << tstats.failed + replay_failed;
  }
  out << "}\n";
  if (!snapshot.empty()) std::remove(snapshot.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace relcomp

int main(int argc, char** argv) { return relcomp::perfbench::Main(argc, argv); }
