// CompletenessService: the multi-setting decision service. It hosts a
// registry of partially closed settings (Dm, V) — one per tenant /
// master-data snapshot — admitted via RegisterSetting (deduplicated by the
// stable setting fingerprint, refcounted, evicted by ReleaseSetting). Each
// registered setting backs a shard owning its PreparedSetting, result
// cache, and counters; handle-carrying requests are routed to their shard
// and served over ONE worker pool shared by every setting.
//
// Every request follows one lifecycle. Admission routes it to its shard,
// counts it, sheds it if its own cancel token or deadline is already spent,
// serves it from the shard cache, or else joins (or creates) the shard's
// flight group for its cache key as a member with a delivery callback. The
// group's owner task claims the group, then sheds it when every member has
// cancelled or expired, serves a cache entry restored meanwhile, or
// evaluates and stores; publication classifies and delivers every member.
// The four submission calls are thin front doors onto it:
//
//   Decide       — admit, then run the group on the calling thread (a
//                  group parked in the queue is claimed and run here too)
//                  or wait for the run already in progress;
//   SubmitAsync  — admit, then queue the owner task; the decision arrives
//                  through a completion callback (or a future);
//   SubmitBatch  — admit every request of a batch (possibly spanning
//                  settings), then queue the batch's owner tasks: identical
//                  requests in one batch collapse into one evaluation, the
//                  duplicates reporting from_cache = true with a note;
//   SubmitStream — the same, delivering each Decision to a pull stream as
//                  it completes instead of materializing the result vector.
//
// Between the request paths and the worker pool sits the sched/ subsystem:
// work is scheduled by a FairQueue whose tenants are the setting shards.
// ServiceOptions picks the policy (legacy strict FIFO by default, or
// weighted fair share so a cheap tenant interleaves with an expensive
// tenant's backlog), the overload decision (block the producer vs. reject
// with a kUnavailable Decision), and per-tenant quotas; ShardOptions can
// override weight, quota and cache capacity per setting at registration.
// A ServiceRequest carries a priority class; everything else that bounds a
// request — its deadline, cancellation token and decider step budget —
// lives on its DecisionRequest::options. Deadlines and cancellation are
// ENFORCED, not best-effort: a still-queued request past its deadline is
// shed before evaluation, and a request already executing is aborted at the
// next cooperative checkpoint inside the decider's search loops, reporting
// kDeadlineExceeded / kCancelled with the partial SearchStats the aborted
// run accumulated. Aborted and budget-exhausted decisions are never
// admitted to the shard cache.
//
// Identical requests that are concurrently in flight — across every front
// door — coalesce: later occurrences join the first's flight group instead
// of recomputing. Each member's interest in the shared run is its request's
// own options.cancel and options.deadline. A group is shed (queued) or
// aborted (running) only when EVERY member has cancelled (or expired); one
// live member keeps the computation alive for everyone — the running
// evaluation polls the group's joint cancellation token and its latest
// member deadline at its checkpoints, so the last member's Cancel() stops a
// computation that is already burning a worker, not just parked ones.
// Answers are deterministic: independent of worker count, scheduling
// policy, and coalescing; only the from_cache flags and coalescing notes
// may differ between runs.
//
// Shard caches live in the cache/ subsystem: each shard owns a
// byte-weighted segmented LRU (cache::ShardCache — probation/protected
// segments with frequency-sketch admission, so one-shot scans cannot flush
// a hot working set), every entry is charged its deep byte cost
// (cache/weigher.h, witnesses included), and ServiceOptions::
// cache_budget_bytes arbitrates ONE shared byte budget across all shards
// (coldest shard evicted first, per-shard cache_floor_bytes floors
// respected). SaveCaches / LoadCaches persist the caches across restarts:
// a reloaded snapshot warm-starts any setting whose fingerprint matches at
// RegisterSetting, so a restarted service serves yesterday's decisions as
// cache hits without re-evaluating anything.
#ifndef RELCOMP_SERVICE_SERVICE_H_
#define RELCOMP_SERVICE_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/budget.h"
#include "cache/shard_cache.h"
#include "core/prepared_setting.h"
#include "obs/export.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sched/cancel.h"
#include "sched/policy.h"
#include "sched/queue.h"
#include "sched/stream.h"
#include "service/decision.h"
#include "util/mutex.h"
#include "util/thread.h"

namespace relcomp {

/// Opaque ticket for a registered setting. Value-semantic and cheap; the
/// zero handle is invalid. Registering a fingerprint-identical setting
/// returns the SAME handle (with its refcount bumped), so handles are also
/// identity: two equal handles route to one shard and one cache.
struct SettingHandle {
  uint64_t id = 0;
  bool valid() const { return id != 0; }
  friend bool operator==(SettingHandle a, SettingHandle b) {
    return a.id == b.id;
  }
  friend bool operator!=(SettingHandle a, SettingHandle b) {
    return a.id != b.id;
  }
};

/// One routed unit of service work: which setting, what to decide, and its
/// priority class. The request's deadline, cancellation token and step
/// budget are its own `request.options`.
struct ServiceRequest {
  SettingHandle setting;
  DecisionRequest request;
  // The default initializer matters beyond defaulting: it keeps
  // `ServiceRequest{handle, request}` aggregate initialization (the
  // dominant spelling in callers) clean under -Wmissing-field-initializers.
  sched::Priority priority = sched::Priority::kNormal;
};

/// Per-setting overrides, fixed at registration. When a setting
/// deduplicates onto an existing shard, the FIRST registration's options
/// stay in force (the shard is shared state; late registrants inherit it).
struct ShardOptions {
  /// "Inherit the service-wide default" marker for size fields.
  static constexpr size_t kInherit = static_cast<size_t>(-1);

  /// Entry capacity for this shard's result cache; kInherit uses
  /// ServiceOptions::cache_capacity, 0 disables memoization for the shard.
  /// The RESOLVED options returned by shard_options() report kInherit
  /// replaced by the service default.
  size_t cache_capacity = kInherit;
  /// Starvation floor under the shared byte budget: OTHER shards' budget
  /// pressure never evicts this shard below this many resident bytes (the
  /// shard may still shed its own entries past it for its own inserts).
  /// Meaningful only with ServiceOptions::cache_budget_bytes set; floors
  /// should sum to well under the budget or over-floor inserts start being
  /// refused admission.
  size_t cache_floor_bytes = 0;
  /// Fair-share weight of this tenant (kFairShare policy only): a weight-4
  /// tenant gets 4x the worker time of a weight-1 tenant under contention.
  uint32_t weight = 1;
  /// Bounded in-queue quota; kInherit uses ServiceOptions::default_max_queue,
  /// 0 means unbounded. Exceeding it triggers the overload policy.
  size_t max_queue = kInherit;
};

/// Service configuration. Workers are shared across all settings; cache
/// capacity and the scheduling defaults below are per setting shard unless
/// overridden by ShardOptions at registration.
struct ServiceOptions {
  size_t num_workers = 4;       ///< shared pool; 0 = run everything inline
  size_t cache_capacity = 1024; ///< cache entries per shard; 0 disables
  /// ONE byte budget shared by every shard's result cache (entry costs per
  /// cache/weigher.h). 0 = unbounded. When an insert would overflow it, the
  /// CacheBudget arbiter evicts from the globally coldest shard first,
  /// respecting per-shard cache_floor_bytes — so total resident cache
  /// bytes never exceed the budget no matter how witness-heavy one
  /// tenant's results are.
  size_t cache_budget_bytes = 0;
  /// Queue order across tenants. kFifo is the legacy strict arrival order;
  /// kFairShare applies stride scheduling over shard weights.
  sched::SchedPolicy policy = sched::SchedPolicy::kFifo;
  /// What admission control does when a tenant is over quota: block the
  /// submitting thread (backpressure) or reject with a kUnavailable
  /// Decision. Irrelevant until a quota is configured.
  sched::OverloadPolicy overload = sched::OverloadPolicy::kBlock;
  /// Default per-tenant in-queue quota; 0 = unbounded.
  size_t default_max_queue = 0;
  /// Observability. `metrics` resolves per-tenant latency/queue histograms,
  /// outcome counters, and cache event instruments at registration; false
  /// strips every instrument from the hot path (the A/B baseline for
  /// overhead measurements — DumpMetrics then reports only derived
  /// counters). `trace_sample` samples every Nth submission into a
  /// per-request span timeline (0 = tracing off). `slow_log` keeps the N
  /// worst end-to-end traces for SlowDecisions() (0 = off; needs
  /// trace_sample to ever receive a trace).
  bool metrics = true;
  uint64_t trace_sample = 0;
  size_t slow_log = 0;
  /// Bounded ring of the most recent finished SAMPLED traces, exported by
  /// DumpTraces() as a Chrome trace_event / Perfetto-compatible JSON
  /// timeline (per-request rows plus per-worker rows with the search
  /// profile's per-loop sub-slices). 0 = no trace retention (DumpTraces
  /// renders an empty timeline); needs trace_sample to ever fill.
  size_t trace_ring = 0;
  /// Flight-recorder sampling period in milliseconds: a background thread
  /// snapshots the system's vitals (in-flight, recent rates, windowed p95,
  /// queue depth, active/stalled evaluations) into a bounded ring read by
  /// ObsReport(), and republishes the abort-path report each tick. 0 =
  /// no periodic sampling (the thread still runs if the watchdog is on).
  /// The recorder retains the last 120 samples and annotations.
  uint64_t recorder_interval_ms = 0;
  /// Stall watchdog threshold: a running evaluation whose cooperative
  /// checkpoints have not heartbeat'd for this many microseconds is
  /// flagged (once) — counted in relcomp_watchdog_stalls_total, annotated
  /// in the flight recorder, and entered into the slow-decision log with
  /// the loop tag and step count it stalled in. 0 = watchdog off. The
  /// watchdog observes heartbeats only at checkpoint granularity, so the
  /// threshold must comfortably exceed checkpoint_interval's wall time.
  uint64_t watchdog_stall_micros = 0;
};

/// One decision of a streamed batch: `index` positions it in the submitted
/// request vector (stream delivery is completion-ordered, not
/// submission-ordered).
struct StreamedDecision {
  size_t index = 0;
  Decision decision;
};

/// The streaming submission path's delivery channel (unbounded).
using DecisionStream = sched::Stream<StreamedDecision>;

class CompletenessService {
 public:
  explicit CompletenessService(ServiceOptions options = {});
  ~CompletenessService();
  CompletenessService(const CompletenessService&) = delete;
  CompletenessService& operator=(const CompletenessService&) = delete;

  const ServiceOptions& options() const { return options_; }

  /// Validates and prepares `setting`, or — when a live setting with the
  /// same stable fingerprint is already registered — bumps its refcount and
  /// returns its existing handle without re-preparing anything (the
  /// original registration's ShardOptions stay in force).
  Result<SettingHandle> RegisterSetting(PartiallyClosedSetting setting,
                                        const ShardOptions& shard_options);
  Result<SettingHandle> RegisterSetting(PartiallyClosedSetting setting) {
    return RegisterSetting(std::move(setting), ShardOptions{});
  }

  /// Drops one registration. The shard (prepared setting, cache, counters)
  /// is evicted when the last registration is released; in-flight requests
  /// keep the shard alive until they finish. kNotFound for unknown or
  /// already fully released handles.
  Status ReleaseSetting(SettingHandle handle);

  /// Number of live (distinct) registered settings.
  size_t num_settings() const;

  /// The shard's prepared setting (a cheap shared handle).
  Result<PreparedSetting> prepared(SettingHandle handle) const;

  /// The shard's resolved per-setting options.
  Result<ShardOptions> shard_options(SettingHandle handle) const;

  /// Stable memoization key of a request under `handle`'s setting (the
  /// primary digest of the dual-digest cache key).
  Result<uint64_t> FingerprintRequest(SettingHandle handle,
                                      const DecisionRequest& request) const;

  /// Decides one request synchronously on the calling thread (consulting
  /// and filling the shard cache, coalescing with in-flight identical
  /// requests, honoring the request's cancellation token and deadline both
  /// at entry and mid-run via the decider's cooperative checkpoints).
  /// An invalid or released handle yields an error Decision, not a crash.
  /// Thread-safe.
  Decision Decide(const ServiceRequest& request);

  /// Decides a batch; the result vector is parallel to `requests`. Requests
  /// may target different settings — each routes to its own shard — and are
  /// fanned out across the shared pool under the scheduling policy. The
  /// whole batch is admitted before any of its work is queued, so identical
  /// requests (same shard, same cache key) always collapse to one
  /// computation; duplicates report from_cache = true with a coalescing
  /// note. Multiple batches may be submitted concurrently; under kFairShare
  /// their tenants share the pool by weight. Thread-safe.
  std::vector<Decision> SubmitBatch(
      const std::vector<ServiceRequest>& requests);

  /// Async path: admits the request (cache lookups and coalescing joins are
  /// resolved immediately, on the submitting thread; fresh work is enqueued
  /// on the shared pool) and returns a future for its decision. With 0
  /// workers the request is decided inline and the future is already
  /// resolved. Thread-safe.
  std::future<Decision> SubmitAsync(ServiceRequest request);

  /// Callback flavor: `on_complete` is invoked with the decision, on a
  /// worker thread (or inline: with 0 workers, when the submission is made
  /// from a pool thread, or when it resolves at admission from the cache),
  /// or on the thread of a Decide that ran the coalesced evaluation.
  /// Submissions made from inside a callback execute inline — a worker
  /// parking on work only workers can drain would deadlock the pool — so
  /// callbacks may safely call back into the service.
  void SubmitAsync(ServiceRequest request,
                   std::function<void(Decision)> on_complete);

  /// Streaming submission: admitted like SubmitBatch, but each decision is
  /// published to `stream` as it completes (tagged with its request index)
  /// instead of materializing the whole result vector. Returns once
  /// everything is admitted (the requests are copied, so the caller's
  /// vector may die immediately). The stream must stay alive and be
  /// drained until Next returns false, after the last delivery; to make
  /// that quick, cancel the requests first. Decisions are identical to
  /// what SubmitBatch would have returned for the same vector. Thread-safe.
  void SubmitStream(const std::vector<ServiceRequest>& requests,
                    DecisionStream* stream);

  /// Per-shard counters; kNotFound after release. The cache-lifecycle
  /// fields (evictions / admission_rejects / cache_bytes) are overlaid
  /// from the shard cache's own stats at read time.
  Result<EngineCounters> counters(SettingHandle handle) const;

  /// Field-wise sum of every live shard's counters.
  EngineCounters TotalCounters() const;

  /// Cache introspection for one shard: resident entries/bytes, lifetime
  /// hit ratio at the cache layer (coalesced requests never reach it),
  /// evictions, admission rejections, and snapshot-restored entries.
  Result<cache::CacheStats> CacheStats(SettingHandle handle) const;

  /// Snapshots every live shard's result cache to `path` (atomic write,
  /// versioned + checksummed; see cache/persist.h). Shards with disabled
  /// caches are skipped. Safe to call while serving.
  Status SaveCaches(const std::string& path) const;

  /// Loads a snapshot saved by SaveCaches. Entries for already-registered
  /// settings are restored into their shard caches immediately; the rest
  /// are staged and restored when a setting with a MATCHING fingerprint
  /// registers (the warm-start path) — entries whose fingerprint never
  /// matches (stale master data) are simply never applied. Returns the
  /// number of setting cache images applied or staged; images matching a
  /// live shard whose cache is disabled are dropped and not counted.
  Result<size_t> LoadCaches(const std::string& path);

  /// Drops the shard's memoized results (counters are preserved).
  Status ClearCache(SettingHandle handle);

  /// Renders every live metric — per-tenant end-to-end latency and
  /// queue-wait histograms (Prometheus le-buckets; JSON carries explicit
  /// p50/p95/p99), per-kind and per-priority request counters, cache event
  /// counters and resident gauges, scheduler-level wait histograms, the
  /// in-flight gauge — plus per-tenant outcome counters derived from the
  /// shard EngineCounters (`relcomp_decisions_total{tenant,outcome=...}`,
  /// the request-partition source of truth). Safe to call while serving.
  std::string DumpMetrics(
      obs::DumpFormat format = obs::DumpFormat::kPrometheus) const;

  /// The slow-decision log's current contents, slowest first: the N worst
  /// end-to-end deliveries, each carrying its latency, trace id, tenant,
  /// problem kind, the full trace, and the evaluation's SearchProfile
  /// (null for cache hits / coalesced joins / sheds — nothing searched).
  /// Watchdog-flagged stalls also land here, annotated via `note`. Empty
  /// unless ServiceOptions::slow_log and trace_sample are both set.
  std::vector<obs::SlowEntry> SlowDecisions() const;

  /// Renders the trace ring as a Chrome trace_event JSON document (loads
  /// in ui.perfetto.dev / chrome://tracing). Empty timeline unless
  /// ServiceOptions::trace_ring and trace_sample are both set.
  std::string DumpTraces() const;

  /// A plain-text operational dashboard: in-flight and queue depth, recent
  /// windowed rates and latency quantiles, per-tenant request rates, the
  /// active-evaluation table (loop tag, steps, heartbeat age, stall flag),
  /// the watchdog stall count, and the flight recorder's retained samples.
  /// This is also the report the lock-rank abort hook dumps to stderr —
  /// republished every recorder tick so a crashing process prints its
  /// last-known vitals. Safe to call while serving.
  std::string ObsReport() const;

  /// The slow-decision log as text, slowest first — the /slow endpoint.
  std::string RenderSlowLog() const;

  /// The active-evaluation table as text — the /debug/active endpoint
  /// (the same table ObsReport embeds, without the rest of the report).
  std::string RenderActiveEvaluations() const;

  /// Starts the live observability HTTP endpoint: /metrics (Prometheus),
  /// /metrics.json, /traces (Perfetto-compatible JSON), /slow, /report,
  /// /debug/active, /healthz, /readyz — the surfaces above, served live.
  /// Scrapes run on the endpoint's own threads and take only the locks
  /// the dump calls always took; the decision hot path is untouched.
  /// One endpoint per service; a second call is an error. The endpoint
  /// stops at StopObs() or destruction.
  Status ServeObs(const obs::ObsHttpOptions& options);

  /// Stops the endpoint and joins its threads; no-op when not serving.
  void StopObs();

  /// The endpoint's bound TCP port (resolves an ephemeral port 0
  /// request), or 0 when not serving.
  uint16_t obs_port() const;

 private:
  /// Dual-digest registry identity of a setting — the RequestCacheKey
  /// collision policy applied to registration: a single 64-bit fingerprint
  /// collision would silently route one tenant's requests to another
  /// tenant's shard, so dedup requires both digests to agree.
  using SettingKey = RequestCacheKey;
  using SettingKeyHash = RequestCacheKeyHash;

  /// A decision's delivery channel; invoked exactly once, never under a
  /// service lock (it may re-enter the service).
  using Deliver = std::function<void(Decision)>;

  /// One coalesced computation in flight: every identical concurrent
  /// request, whichever front door it came through, joins this group as a
  /// Member instead of recomputing. Guarded by the owning shard's mutex,
  /// except the atomic `run_deadline`.
  struct FlightGroup {
    struct Member {
      /// The member's interest: its request's options.cancel and
      /// options.deadline.
      sched::CancelToken cancel;
      sched::TimePoint deadline = sched::kNoDeadline;
      /// Submission time and (when sampled) this member's own trace: each
      /// member's decision is stamped with ITS latency at delivery, and a
      /// coalesced member's trace records the run it joined.
      sched::TimePoint submit{};
      std::shared_ptr<obs::Trace> trace;
      Deliver deliver;
    };
    std::vector<Member> members;  ///< in admission order; the creator is [0]
    /// Joint cancellation interest of every member. The running evaluation
    /// polls interest.token() at its cooperative checkpoints, so it aborts
    /// exactly when every member has cancelled; members without a token pin
    /// the computation live forever. Membership may grow while the
    /// evaluation runs (a late joiner re-pins a not-yet-aborted run).
    sched::CancelGroup interest;
    /// The run's EXTENDABLE deadline: the latest deadline among the members
    /// so far (steady-clock rep; max = none — one deadline-less member lifts
    /// the bound for everyone). The evaluation's checkpoints re-read it each
    /// poll via SearchOptions::shared_deadline, so a member joining mid-run
    /// extends a running search's deadline the same way its token re-pins
    /// cancellation. Grows monotonically (ExtendRunDeadline); a member
    /// cancelling does not shrink it — that is the CancelGroup's job.
    std::atomic<sched::Clock::rep> run_deadline{
        sched::TimePoint::min().time_since_epoch().count()};
    /// The most urgent priority among the members: the owner task's class.
    sched::Priority priority = sched::Priority::kLow;
    /// The shard's `restores` when the group was created.
    uint64_t restores = 0;
    /// Set once a participant claims the group: its owner task, or a caller
    /// that must not block on a task still parked in the queue (Decide, or
    /// any inline submission — with every worker blocked that way the pool
    /// would deadlock) and so runs the group itself.
    bool started = false;
    /// The trace of the member charged with the evaluation (null for an
    /// unsampled run). Written at claim time; joiners read it under the
    /// shard mutex to note which run they piggy-backed on.
    std::shared_ptr<obs::Trace> run_trace;
  };

  /// Per-shard metric instruments, resolved once at registration from the
  /// service's registry (all null when ServiceOptions::metrics is false —
  /// every use site null-checks, so the uninstrumented hot path costs one
  /// branch). The instruments outlive the shard: they live in the registry,
  /// and Prometheus counters are cumulative across a tenant's lifetime.
  struct ShardMetrics {
    obs::Histogram* e2e_latency = nullptr;
    obs::Histogram* queue_wait = nullptr;
    std::vector<obs::Counter*> by_kind;  ///< indexed by ProblemKind
    std::array<obs::Counter*, sched::kNumPriorities> by_priority{};
  };

  /// One registered setting: prepared artifacts + cache + counters + the
  /// in-flight table used for request coalescing. Shared-ptr'd so requests
  /// already routed survive a concurrent ReleaseSetting.
  struct Shard {
    Shard(PreparedSetting prepared_setting, SettingKey key,
          const ShardOptions& resolved,
          std::shared_ptr<cache::ShardCache> shard_cache)
        : prepared(std::move(prepared_setting)),
          setting_key(key),
          options(resolved),
          cache(std::move(shard_cache)) {}

    PreparedSetting prepared;
    const SettingKey setting_key;
    const ShardOptions options;  ///< resolved (no kInherit markers)
    uint64_t id = 0;        // handle id; set once at registration, then
                            // read-only (doubles as the tenant label)
    ShardMetrics metrics;   // set once at registration, then read-only
    /// Sliding window of this tenant's recent deliveries (their count over
    /// 1s/10s/60s gives the request rates in DumpMetrics / ObsReport).
    /// Internally synchronized; null when metrics are off.
    std::unique_ptr<obs::WindowedHistogram> window;
    uint64_t refcount = 1;  // guarded by registry_mu_ (not expressible as
                            // GUARDED_BY: the outer service's mutex is not
                            // nameable from a nested struct)

    // Guards counters + in_flight (NOT the cache: it is internally
    // synchronized — peer shards shed its entries under shared-budget
    // pressure without ever taking a shard mutex).
    mutable Mutex mu{LockRank::kShard, "Shard::mu"};
    const std::shared_ptr<cache::ShardCache> cache;
    EngineCounters counters GUARDED_BY(mu);
    /// LoadCaches calls that restored entries into this live shard.
    uint64_t restores GUARDED_BY(mu) = 0;
    std::unordered_map<RequestCacheKey, std::shared_ptr<FlightGroup>,
                       RequestCacheKeyHash>
        in_flight GUARDED_BY(mu);
  };

  /// What admission hands back to a front door: the flight group the
  /// request joined or created — null when it was resolved at admission
  /// (unknown handle, shed, cache hit) and already delivered.
  struct Ticket {
    std::shared_ptr<Shard> shard;
    std::shared_ptr<FlightGroup> group;
    RequestCacheKey key;
    bool created = false;  ///< it created the group
  };

  std::shared_ptr<Shard> FindShard(SettingHandle handle) const
      EXCLUDES(registry_mu_);
  static Decision UnknownHandleDecision(SettingHandle handle);

  /// The one admission path. Routes the request to `shard` (null = unknown
  /// handle), charges it, sheds it when its own cancel token or deadline is
  /// already spent, serves it from the cache, or else joins — creating if
  /// absent — the shard's flight group for its key as a Member delivering
  /// through `deliver`. A request resolved here is finished and delivered
  /// before Admit returns, `deliver` invoked in place (never copied).
  Ticket Admit(std::shared_ptr<Shard> shard, const ServiceRequest& request,
               sched::TimePoint submit, Deliver&& deliver);

  /// Admits every request of a batch with members publishing to `stream`
  /// (finished after the last delivery), then dispatches the batch's
  /// groups — only once the whole batch is admitted, so duplicates within
  /// it always collapse into one evaluation. `owner`, when set, keeps
  /// `requests` alive until every queued owner task ran; without it the
  /// caller must drain `stream` before `requests` dies.
  void AdmitBatch(const std::vector<ServiceRequest>& requests,
                  const std::shared_ptr<const void>& owner,
                  DecisionStream* stream);

  /// Runs the admitted group's owner task inline — with no workers, or on a
  /// pool thread, where the caller claims joined parked groups too — or
  /// queues the creator's owner task at the most urgent priority and the
  /// latest deadline among the group's members. `keep_alive` pins
  /// `request` for the queued task.
  void Dispatch(const Ticket& ticket, const DecisionRequest* request,
                std::shared_ptr<const void> keep_alive);

  /// The owner-task body: claims the group (returning at once when another
  /// participant already did), then sheds the group when the queue refused
  /// it or every member has cancelled or expired, serves a cache entry
  /// LoadCaches restored since admission, or evaluates `request` under the
  /// group's joint token and run deadline — and publishes. `request` is
  /// read only after a successful claim: an unclaimed group has every
  /// member undelivered, so a batch caller waiting on its members still
  /// owns the request.
  void RunOwner(const Ticket& ticket, const DecisionRequest* request,
                sched::TaskOutcome outcome, std::chrono::microseconds wait);

  /// Delivers a claimed group's `decision` to every member: when
  /// `evaluated`, first books the run (search stats, errors, a mid-run
  /// abort's re-filing) and stores a cacheable verdict, atomically with
  /// retiring the group (a group that never ran retired at claim). The
  /// `billed` member (counted at claim; none for a shed group) receives
  /// `decision` as is; every other member reports kCancelled if its own
  /// token fired, else mirrors a shed/abort, else is a coalesced hit.
  void Publish(Shard& shard, const Ticket& ticket, const Decision& decision,
               std::optional<size_t> billed, bool evaluated, const char* kind)
      EXCLUDES(shard.mu);

  /// Resolves one new shard's metric instruments (and wires the cache's
  /// event sink) under the tenant label `handle_id`. No-op when
  /// ServiceOptions::metrics is false.
  void InitShardMetrics(Shard& shard, uint64_t handle_id);

  /// Charges the per-kind / per-priority admission counters. Called once
  /// per admitted request (duplicates included).
  static void CountAdmission(const Shard& shard, const ServiceRequest& request);

  /// The one delivery choke point: stamps Decision::latency_micros
  /// (submit → now), releases an admitted request from the in-flight
  /// gauge, records the latency in the shard's end-to-end histogram and
  /// the shard + service sliding windows, and — when the request carried
  /// a trace — finishes the trace (closing any open phase at the SAME
  /// instant the latency is measured, so span durations sum exactly to
  /// the stamped latency), offers a SlowEntry (latency, trace id, tenant,
  /// `kind`, trace, search profile) to the slow-decision log, and offers
  /// the finished trace to the export ring. `shard` may be null
  /// (unknown-handle deliveries); `kind` is the delivery's
  /// ProblemKindName (empty-string/null tolerated). Call at most once per
  /// (trace, decision) pair.
  void FinishRequest(Shard* shard, const std::shared_ptr<obs::Trace>& trace,
                     sched::TimePoint submit, Decision* decision,
                     const char* kind);

  /// The instrumented core of every evaluation: anchors a SearchProfile at
  /// the same instant the trace's "evaluate" phase opens (so profile slice
  /// offsets are offsets into the evaluate span), registers the run with
  /// the stall watchdog, chains the checkpoint progress hook (heartbeat →
  /// trace mark → the request's own hook), runs EvaluateRequest, and
  /// attaches the finished profile to the Decision, feeding the per-loop
  /// step/latency metric families. Runs OUTSIDE shard.mu (the evaluation
  /// is long); `effective`'s profile/progress fields are overwritten.
  Decision RunEvaluation(Shard& shard, const DecisionRequest& request,
                         SearchOptions* effective,
                         const std::shared_ptr<obs::Trace>& trace);

  /// Charges one finished evaluation's per-loop attribution into the
  /// relcomp_search_steps_total{tenant,kind,loop} counters and the
  /// relcomp_search_loop_micros{tenant,loop} histograms. No-op when
  /// metrics are off.
  void RecordSearchProfile(const Shard& shard, const DecisionRequest& request,
                           const SearchProfile& profile);

  /// Records one member's deadline in the group's shared run deadline
  /// (monotonic max; kNoDeadline lifts it entirely), including while the
  /// evaluation runs.
  static void ExtendRunDeadline(FlightGroup& group, sched::TimePoint deadline);

  void WorkerLoop(int worker_index);

  /// The sampler/watchdog thread body: sleeps on recorder_wake_mu_ in
  /// recorder-tick-sized slices (woken early by shutdown), scans the
  /// active-evaluation registry for stalls, snapshots vitals into the
  /// flight recorder on the configured cadence, and republishes the
  /// abort-path report. All work happens OUTSIDE the wake mutex.
  void RecorderLoop();

  const ServiceOptions options_;

  // The shared cache-byte arbiter. Declared BEFORE the shard registry:
  // members destroy in reverse order, and every shard cache deregisters
  // from the budget in its destructor, so the budget must outlive the
  // shards. Null when cache_budget_bytes is 0 (unbounded — shards skip
  // budget accounting entirely).
  std::unique_ptr<cache::CacheBudget> cache_budget_;

  // Registry: handle id → shard, plus the fingerprint dedup index. The
  // OUTERMOST lock in the system (kServiceRegistry): registration holds it
  // while reaching into the queue, the cache (warm restore), and the
  // metrics registry.
  mutable Mutex registry_mu_{LockRank::kServiceRegistry,
                             "CompletenessService::registry_mu_"};
  std::unordered_map<uint64_t, std::shared_ptr<Shard>> shards_
      GUARDED_BY(registry_mu_);
  std::unordered_map<SettingKey, uint64_t, SettingKeyHash>
      handle_by_fingerprint_ GUARDED_BY(registry_mu_);
  uint64_t next_handle_id_ GUARDED_BY(registry_mu_) = 1;
  // Snapshot entries loaded before their setting registered, keyed by the
  // setting fingerprint they were computed under; applied (and erased) by
  // the first matching RegisterSetting.
  std::unordered_map<SettingKey,
                     std::vector<std::pair<RequestCacheKey, Decision>>,
                     SettingKeyHash>
      pending_warm_ GUARDED_BY(registry_mu_);

  // Observability: the service-owned metrics registry (per-service, so two
  // services in one process never collide on tenant labels — handle ids
  // restart at 1 per service), the sampling tracer, and the slow-decision
  // log. Declared before the queue/workers so instruments outlive anything
  // recording into them during shutdown.
  obs::MetricsRegistry metrics_registry_;
  obs::Tracer tracer_;
  obs::SlowDecisionLog slow_log_;
  obs::TraceSink trace_sink_;        ///< export ring behind DumpTraces()
  obs::ActiveEvaluations active_;    ///< running evaluations (watchdog prey)
  obs::FlightRecorder recorder_;     ///< periodic vitals ring
  obs::Gauge* inflight_gauge_ = nullptr;          ///< null when metrics off
  obs::Histogram* sched_queue_wait_ = nullptr;    ///< queue-level, all tenants
  obs::Histogram* sched_token_wait_ = nullptr;    ///< admission-block time
  /// Service-wide sliding window of deliveries (all tenants merged): the
  /// request rates and the recent latency quantiles. Null when metrics are
  /// off, like the per-shard ones.
  std::unique_ptr<obs::WindowedHistogram> window_;
  /// Evaluations the watchdog has flagged as stalled, cumulative. Kept as
  /// a plain atomic (not only a registry counter) so ObsReport and the
  /// metrics-off configuration still see it.
  std::atomic<uint64_t> watchdog_stall_count_{0};

  // The scheduler subsystem: a policy-driven multi-tenant queue (tenant =
  // setting shard) feeding the shared worker pool. Workers drain the queue
  // before honoring shutdown, so async submissions accepted before
  // destruction still resolve.
  sched::FairQueue queue_;
  std::vector<JoinableThread> workers_;

  // The sampler/watchdog thread, started after the workers when the
  // recorder or watchdog is configured and stopped FIRST in the
  // destructor (it reads members the teardown below dismantles). The wake
  // mutex exists only so shutdown can interrupt the tick sleep; the loop
  // never does work under it.
  mutable Mutex recorder_wake_mu_{LockRank::kObsRecorderWake,
                                  "CompletenessService::recorder_wake_mu_"};
  CondVar recorder_wake_cv_;
  bool recorder_stop_ GUARDED_BY(recorder_wake_mu_) = false;
  JoinableThread recorder_thread_;

  /// The live observability endpoint; null until ServeObs. Its handler
  /// threads call back into `this`, so the destructor stops it before
  /// ANY other teardown. Guarded for create/stop races; StopObs releases
  /// the lock before joining (handlers take registry_mu_ themselves).
  std::unique_ptr<obs::HttpEndpoint> obs_endpoint_ GUARDED_BY(registry_mu_);

  /// Construction instant, behind the uptime metric.
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace relcomp

#endif  // RELCOMP_SERVICE_SERVICE_H_
