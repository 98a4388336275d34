#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <sstream>
#include <utility>

#include "cache/persist.h"
#include "core/fingerprint.h"
#include "util/build_info.h"

namespace relcomp {

namespace {

/// Set while a pool thread is executing jobs. Re-entrant submissions — a
/// completion callback calling back into Decide/SubmitBatch/SubmitAsync —
/// then execute inline instead of enqueueing: a worker blocking on work
/// that only workers can drain would deadlock the pool.
thread_local bool tls_on_worker_thread = false;

/// Which worker-pool thread this is (trace-export track id);
/// Trace::kInlineTrack on submitter threads.
thread_local int tls_worker_index = obs::Trace::kInlineTrack;

/// Flight-recorder ring capacity: two minutes of vitals at a 1 s interval.
constexpr size_t kRecorderRing = 120;

void AppendNote(Decision* decision, const char* note) {
  if (decision->note.empty()) {
    decision->note = note;
  } else {
    decision->note += "; ";
    decision->note += note;
  }
}

Decision CancelledDecision() {
  Decision decision;
  decision.status =
      Status::Cancelled("request cancelled before evaluation started");
  return decision;
}

Decision ExpiredDecision() {
  Decision decision;
  decision.status = Status::DeadlineExceeded(
      "best-effort deadline passed while queued; request shed before "
      "evaluation");
  return decision;
}

Decision RejectedDecision() {
  Decision decision;
  decision.status = Status::Unavailable(
      "admission control rejected the request (tenant queue quota exceeded)");
  return decision;
}

/// Whether a decision was shed by the scheduler rather than answered — the
/// other members of a shed group mirror its scheduling fate in the counters
/// instead of counting as cache hits. Mid-run aborts carry the same codes,
/// so the members of an aborted run mirror the abort too.
bool IsShedDecision(const Decision& decision) {
  switch (decision.status.code()) {
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

/// Whether an evaluation that RAN was aborted mid-run by a cooperative
/// checkpoint (deadline or joint cancellation).
bool IsAbortStatus(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Whether a decision is a definitive verdict that may live in the shard
/// LRU. Resource-dependent failures — mid-run aborts, admission rejections,
/// and a decider's own step-budget exhaustion — must never be replayed
/// from the cache as if they were answers.
bool IsCacheableDecision(const Decision& decision) {
  switch (decision.status.code()) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kUnavailable:
      return false;
    default:
      return true;
  }
}

/// Files one request under the partition bucket matching a shed or abort
/// status (kCancelled → cancelled, kUnavailable → rejected, otherwise
/// expired). The ONE place that owns the mapping — every shed-accounting
/// site goes through it so the requests == hits+misses+rejected+expired+
/// cancelled invariant cannot drift between them. Requires the shard mutex.
void CountShedLocked(EngineCounters& counters, const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      ++counters.cancelled;
      break;
    case StatusCode::kUnavailable:
      ++counters.rejected;
      break;
    default:
      ++counters.expired;
      break;
  }
}

/// Re-files an evaluation that aborted mid-run: the claim-time cache miss
/// becomes the matching abort bucket, and the wasted search work becomes
/// visible as shed_running / aborted_steps. Requires the shard mutex.
void ReclassifyAbortLocked(EngineCounters& counters, const Decision& decision) {
  --counters.cache_misses;
  CountShedLocked(counters, decision.status);
  ++counters.shed_running;
  counters.aborted_steps += decision.stats.TotalSteps();
}

/// Queue-wait accounting for one scheduled task: the shard counters plus
/// the tenant's queue-wait histogram (null = metrics off). Requires the
/// shard mutex.
void CountWaitLocked(EngineCounters& counters, std::chrono::microseconds wait,
                     obs::Histogram* histogram) {
  if (wait.count() < 0) return;  // never queued (inline or rejected)
  ++counters.waited;
  const uint64_t micros = static_cast<uint64_t>(wait.count());
  counters.wait_micros += micros;
  counters.max_wait_micros = std::max(counters.max_wait_micros, micros);
  if (histogram != nullptr) histogram->Record(micros);
}

/// The trace outcome tag of a finished decision: the verdict for served
/// answers, the status code for everything else.
std::string TraceOutcome(const Decision& decision) {
  if (decision.status.ok()) return decision.answer ? "YES" : "no";
  return StatusCodeName(decision.status.code());
}

/// The delivery side of one batch: every member of the batch publishes its
/// decision to the batch's stream, and the last one finishes the stream.
struct BatchSink {
  DecisionStream* stream;
  std::atomic<size_t> remaining;

  BatchSink(DecisionStream* s, size_t n) : stream(s), remaining(n) {}

  void Deliver(size_t index, Decision decision) {
    stream->Publish(StreamedDecision{index, std::move(decision)});
    if (remaining.fetch_sub(1) == 1) stream->Finish();
  }
};

}  // namespace

CompletenessService::CompletenessService(ServiceOptions options)
    : options_(options),
      cache_budget_(options.cache_budget_bytes > 0
                        ? std::make_unique<cache::CacheBudget>(
                              options.cache_budget_bytes)
                        : nullptr),
      queue_(options.policy, options.overload,
             sched::TenantOptions{/*weight=*/1, options.default_max_queue}) {
  tracer_.Configure(options_.trace_sample);
  slow_log_.Configure(options_.slow_log);
  trace_sink_.Configure(options_.trace_ring);
  if (options_.metrics) {
    window_ = std::make_unique<obs::WindowedHistogram>();
    inflight_gauge_ = metrics_registry_.GetGauge(obs::kMetricInflightRequests);
    sched_queue_wait_ =
        metrics_registry_.GetHistogram(obs::kMetricSchedQueueWaitMicros);
    sched_token_wait_ =
        metrics_registry_.GetHistogram(obs::kMetricSchedTokenWaitMicros);
    queue_.AttachMetrics(sched_queue_wait_, sched_token_wait_);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<int>(i)); });
  }
  if (options_.recorder_interval_ms > 0 || options_.watchdog_stall_micros > 0) {
    recorder_.Configure(kRecorderRing);
    obs::InstallAbortReportHook();
    recorder_thread_ = JoinableThread([this] { RecorderLoop(); });
  }
}

CompletenessService::~CompletenessService() {
  // The observability endpoint's handler threads call back into this
  // service, so it stops before anything else is dismantled.
  StopObs();
  // The sampler reads queue/window/registry state the rest of this
  // teardown dismantles, so it stops first.
  if (recorder_thread_.joinable()) {
    {
      MutexLock lock(recorder_wake_mu_);
      recorder_stop_ = true;
    }
    recorder_wake_cv_.NotifyAll();
    recorder_thread_.Join();
  }
  queue_.Shutdown();
  for (JoinableThread& worker : workers_) worker.Join();
}

void CompletenessService::WorkerLoop(int worker_index) {
  tls_on_worker_thread = true;
  tls_worker_index = worker_index;
  sched::Task task;
  sched::TaskOutcome outcome;
  while (queue_.Pop(&task, &outcome)) {
    task.fn(outcome, task.wait);
    task.fn = nullptr;  // drop captures before blocking in Pop again
  }
}

Result<SettingHandle> CompletenessService::RegisterSetting(
    PartiallyClosedSetting setting, const ShardOptions& shard_options) {
  const SettingFingerprints prints = FingerprintSettingWide(setting);
  const SettingKey key{prints.primary, prints.check};
  {
    MutexLock lock(registry_mu_);
    auto it = handle_by_fingerprint_.find(key);
    if (it != handle_by_fingerprint_.end()) {
      ++shards_.at(it->second)->refcount;
      return SettingHandle{it->second};
    }
  }
  // Prepare outside the registry lock — validation and Adom seeding can be
  // heavy, and other settings keep registering meanwhile.
  // The dedup digest doubles as the prepared fingerprint: no re-scan.
  Result<PreparedSetting> prepared =
      PreparedSetting::Prepare(std::move(setting), key.primary);
  if (!prepared.ok()) return prepared.status();

  ShardOptions resolved = shard_options;
  if (resolved.cache_capacity == ShardOptions::kInherit) {
    resolved.cache_capacity = options_.cache_capacity;
  }
  if (resolved.max_queue == ShardOptions::kInherit) {
    resolved.max_queue = options_.default_max_queue;
  }
  if (resolved.weight == 0) resolved.weight = 1;

  auto shard_cache =
      std::make_shared<cache::ShardCache>(resolved.cache_capacity);
  if (cache_budget_ != nullptr && resolved.cache_capacity > 0) {
    shard_cache->AttachBudget(cache_budget_.get(), shard_cache,
                              resolved.cache_floor_bytes);
  }

  MutexLock lock(registry_mu_);
  auto it = handle_by_fingerprint_.find(key);
  if (it != handle_by_fingerprint_.end()) {
    // Another thread registered the same setting while we prepared.
    ++shards_.at(it->second)->refcount;
    return SettingHandle{it->second};
  }
  // Warm start: replay any staged snapshot entries computed under this
  // exact setting fingerprint (coldest first, so recency survives the
  // round trip). A snapshot of different master data fingerprints
  // differently and simply never matches.
  if (resolved.cache_capacity > 0) {
    auto warm = pending_warm_.find(key);
    if (warm != pending_warm_.end()) {
      for (auto& [entry_key, decision] : warm->second) {
        shard_cache->Restore(entry_key, std::move(decision));
      }
      pending_warm_.erase(warm);
    }
  }
  const uint64_t id = next_handle_id_++;
  auto shard = std::make_shared<Shard>(std::move(prepared).value(), key,
                                       resolved, std::move(shard_cache));
  shard->id = id;
  InitShardMetrics(*shard, id);
  shards_.emplace(id, std::move(shard));
  handle_by_fingerprint_.emplace(key, id);
  queue_.RegisterTenant(id, sched::TenantOptions{resolved.weight,
                                                 resolved.max_queue});
  return SettingHandle{id};
}

Status CompletenessService::ReleaseSetting(SettingHandle handle) {
  MutexLock lock(registry_mu_);
  auto it = shards_.find(handle.id);
  if (it == shards_.end()) {
    return Status::NotFound("setting handle " + std::to_string(handle.id) +
                            " is not registered (or already fully released)");
  }
  if (--it->second->refcount == 0) {
    handle_by_fingerprint_.erase(it->second->setting_key);
    shards_.erase(it);  // in-flight requests hold their own shared_ptr
    queue_.ReleaseTenant(handle.id);
  }
  return Status::OK();
}

size_t CompletenessService::num_settings() const {
  MutexLock lock(registry_mu_);
  return shards_.size();
}

std::shared_ptr<CompletenessService::Shard> CompletenessService::FindShard(
    SettingHandle handle) const {
  MutexLock lock(registry_mu_);
  auto it = shards_.find(handle.id);
  return it == shards_.end() ? nullptr : it->second;
}

Decision CompletenessService::UnknownHandleDecision(SettingHandle handle) {
  Decision decision;
  decision.status =
      Status::NotFound("setting handle " + std::to_string(handle.id) +
                       " is not registered (or already fully released)");
  return decision;
}

void CompletenessService::InitShardMetrics(Shard& shard, uint64_t handle_id) {
  if (!options_.metrics) return;
  shard.window = std::make_unique<obs::WindowedHistogram>();
  const obs::LabelSet tenant{{"tenant", std::to_string(handle_id)}};
  shard.metrics.e2e_latency =
      metrics_registry_.GetHistogram(obs::kMetricRequestLatencyMicros, tenant);
  shard.metrics.queue_wait =
      metrics_registry_.GetHistogram(obs::kMetricQueueWaitMicros, tenant);
  const std::vector<ProblemKind>& kinds = AllProblemKinds();
  shard.metrics.by_kind.assign(kinds.size(), nullptr);
  for (size_t i = 0; i < kinds.size(); ++i) {
    obs::LabelSet labels = tenant;
    labels.emplace_back("kind", ProblemKindName(kinds[i]));
    shard.metrics.by_kind[i] =
        metrics_registry_.GetCounter(obs::kMetricRequestsTotal, labels);
  }
  static constexpr const char* kPriorityNames[sched::kNumPriorities] = {
      "high", "normal", "low"};
  for (size_t i = 0; i < sched::kNumPriorities; ++i) {
    obs::LabelSet labels = tenant;
    labels.emplace_back("priority", kPriorityNames[i]);
    shard.metrics.by_priority[i] =
        metrics_registry_.GetCounter(obs::kMetricPriorityRequestsTotal, labels);
  }
  cache::CacheEventSink sink;
  sink.hits = metrics_registry_.GetCounter(obs::kMetricCacheHitsTotal, tenant);
  sink.misses =
      metrics_registry_.GetCounter(obs::kMetricCacheMissesTotal, tenant);
  sink.evictions =
      metrics_registry_.GetCounter(obs::kMetricCacheEvictionsTotal, tenant);
  sink.admission_rejects = metrics_registry_.GetCounter(
      obs::kMetricCacheAdmissionRejectsTotal, tenant);
  sink.resident_bytes =
      metrics_registry_.GetGauge(obs::kMetricCacheResidentBytes, tenant);
  sink.resident_entries =
      metrics_registry_.GetGauge(obs::kMetricCacheResidentEntries, tenant);
  shard.cache->AttachEvents(sink);
}

void CompletenessService::CountAdmission(const Shard& shard,
                                         const ServiceRequest& request) {
  const size_t kind = static_cast<size_t>(request.request.kind);
  if (kind < shard.metrics.by_kind.size() &&
      shard.metrics.by_kind[kind] != nullptr) {
    shard.metrics.by_kind[kind]->Inc();
  }
  const size_t priority = static_cast<size_t>(request.priority);
  if (priority < shard.metrics.by_priority.size() &&
      shard.metrics.by_priority[priority] != nullptr) {
    shard.metrics.by_priority[priority]->Inc();
  }
}

void CompletenessService::FinishRequest(
    Shard* shard, const std::shared_ptr<obs::Trace>& trace,
    sched::TimePoint submit, Decision* decision, const char* kind) {
  const sched::TimePoint now = sched::Clock::now();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(now - submit);
  const uint64_t micros =
      elapsed.count() > 0 ? static_cast<uint64_t>(elapsed.count()) : 0;
  decision->latency_micros = micros;
  if (shard != nullptr && inflight_gauge_ != nullptr) inflight_gauge_->Add(-1);
  if (shard != nullptr && shard->metrics.e2e_latency != nullptr) {
    shard->metrics.e2e_latency->Record(micros);
  }
  if (shard != nullptr && shard->window != nullptr) {
    shard->window->Record(micros, now);
  }
  if (window_ != nullptr) window_->Record(micros, now);
  if (trace != nullptr) {
    // The SAME instant closes the trace and stamps the latency: the span
    // durations sum to latency_micros exactly, not merely approximately.
    trace->Finish(TraceOutcome(*decision), now);
    obs::SlowEntry entry;
    entry.micros = micros;
    entry.trace_id = trace->id();
    if (shard != nullptr) entry.tenant = std::to_string(shard->id);
    if (kind != nullptr) entry.kind = kind;
    entry.trace = trace;
    entry.profile = decision->profile;
    slow_log_.Offer(std::move(entry));
    obs::TraceRecord record;
    record.trace = trace;
    if (shard != nullptr) record.tenant = std::to_string(shard->id);
    if (kind != nullptr) record.kind = kind;
    record.profile = decision->profile;
    record.worker = trace->track();
    trace_sink_.Offer(std::move(record));
  }
}

Result<PreparedSetting> CompletenessService::prepared(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return shard->prepared;
}

Result<ShardOptions> CompletenessService::shard_options(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return shard->options;
}

Result<uint64_t> CompletenessService::FingerprintRequest(
    SettingHandle handle, const DecisionRequest& request) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return RequestKeyFor(shard->prepared, request).primary;
}

Decision CompletenessService::RunEvaluation(
    Shard& shard, const DecisionRequest& request, SearchOptions* effective,
    const std::shared_ptr<obs::Trace>& trace) {
  // One clock read anchors the trace's "evaluate" phase AND the profile's
  // epoch, so profile slice offsets are offsets into the evaluate span
  // (what the trace exporter nests sub-slices by).
  auto profile = std::make_shared<SearchProfile>();
  const obs::TraceTime eval_start = obs::TraceClock::now();
  profile->Start(eval_start);
  effective->profile = profile.get();
  if (trace != nullptr) {
    trace->Phase("evaluate", eval_start);
    trace->SetTrack(tls_worker_index);
  }

  // Register with the stall watchdog for exactly the evaluation's
  // lifetime. Heartbeats flow through the chained progress hook below;
  // registering without enabling that hook would flag every long
  // evaluation as stalled, so both are gated on the same condition.
  const bool watched = options_.watchdog_stall_micros > 0;
  obs::ActiveEvaluations::Registration registration;
  obs::ActiveEvaluations::Record* heartbeat = nullptr;
  if (watched) {
    registration = active_.Register(std::to_string(shard.id),
                                    ProblemKindName(request.kind),
                                    trace != nullptr ? trace->id() : 0,
                                    eval_start);
    heartbeat = registration.record();
  }

  // Chain the checkpoint progress hook: watchdog heartbeat, then the
  // trace mark, then whatever hook the request itself supplied (which may
  // block — the heartbeat must land first so the watchdog sees the loop
  // the request's hook is stuck under).
  const SearchOptions::SearchProgressFn* original = effective->progress;
  SearchOptions::SearchProgressFn progress_fn;
  if (heartbeat != nullptr || trace != nullptr || original != nullptr) {
    progress_fn = [&trace, heartbeat, original](const char* what,
                                                uint64_t steps) {
      if (heartbeat != nullptr) heartbeat->Heartbeat(what, steps);
      if (trace != nullptr) {
        trace->Mark(std::string("eval:") + what,
                    "steps=" + std::to_string(steps));
      }
      if (original != nullptr && *original) (*original)(what, steps);
    };
    effective->progress = &progress_fn;
  }

  Decision decision = EvaluateRequest(request, shard.prepared, effective);

  const obs::TraceTime eval_end = obs::TraceClock::now();
  profile->Finish(eval_end);
  if (trace != nullptr) trace->Phase("cache-store", eval_end);
  decision.profile = std::move(profile);
  RecordSearchProfile(shard, request, *decision.profile);
  return decision;
}

void CompletenessService::RecordSearchProfile(const Shard& shard,
                                              const DecisionRequest& request,
                                              const SearchProfile& profile) {
  if (!options_.metrics) return;
  const std::string tenant = std::to_string(shard.id);
  const char* kind = ProblemKindName(request.kind);
  for (const SearchProfile::LoopTotal& total : profile.totals()) {
    obs::Counter* steps = metrics_registry_.GetCounter(
        obs::kMetricSearchStepsTotal,
        {{"tenant", tenant}, {"kind", kind}, {"loop", total.loop}});
    if (steps != nullptr) steps->Inc(total.steps);
    obs::Histogram* micros = metrics_registry_.GetHistogram(
        obs::kMetricSearchLoopMicros,
        {{"tenant", tenant}, {"loop", total.loop}});
    if (micros != nullptr) micros->Record(total.micros);
  }
}

void CompletenessService::ExtendRunDeadline(FlightGroup& group,
                                            sched::TimePoint deadline) {
  const sched::Clock::rep candidate = deadline.time_since_epoch().count();
  sched::Clock::rep current =
      group.run_deadline.load(std::memory_order_relaxed);
  while (current < candidate &&
         !group.run_deadline.compare_exchange_weak(current, candidate,
                                                   std::memory_order_relaxed)) {
  }
}

CompletenessService::Ticket CompletenessService::Admit(
    std::shared_ptr<Shard> shard, const ServiceRequest& request,
    sched::TimePoint submit, Deliver&& deliver) {
  Decision resolved;
  std::shared_ptr<obs::Trace> trace;
  if (shard == nullptr) {
    resolved = UnknownHandleDecision(request.setting);
  } else {
    if (inflight_gauge_ != nullptr) inflight_gauge_->Add(1);
    CountAdmission(*shard, request);
    trace = tracer_.MaybeTrace(submit);
    if (trace != nullptr) trace->Phase("admit", submit);
    // The member's interest: its request's own token and deadline.
    const sched::CancelToken& cancel = request.request.options.cancel;
    const sched::TimePoint deadline = request.request.options.deadline;
    const bool cancelled = cancel.cancelled();
    const bool shed = cancelled || deadline < submit;
    RequestCacheKey key;
    if (!shed) {
      key = RequestKeyFor(shard->prepared, request.request);
      if (trace != nullptr) trace->Phase("cache-lookup");
    }
    MutexLock lock(shard->mu);
    ++shard->counters.requests;
    if (shed) {
      resolved = cancelled ? CancelledDecision() : ExpiredDecision();
      CountShedLocked(shard->counters, resolved.status);
      if (trace != nullptr) {
        trace->Phase("shed");
        trace->AnnotatePhase(cancelled ? "cancelled at admission"
                                       : "deadline passed at admission");
      }
    } else if (shard->cache->Get(key, &resolved)) {
      ++shard->counters.cache_hits;
      resolved.from_cache = true;
      if (trace != nullptr) trace->AnnotatePhase("hit");
    } else {
      std::shared_ptr<FlightGroup>& group = shard->in_flight[key];
      const bool created = group == nullptr;
      if (created) {
        group = std::make_shared<FlightGroup>();
        group->restores = shard->restores;
        if (trace != nullptr) trace->Phase("queue");  // until claimed
      } else if (trace != nullptr) {
        trace->Phase("coalesce-join");
        trace->AnnotatePhase(group->run_trace != nullptr
                                 ? "joined run trace#" +
                                       std::to_string(group->run_trace->id())
                                 : "joined in-flight run");
      }
      // The member keeps the (possibly already running) computation alive
      // while its token is live — no token pins it forever — and extends
      // the run's deadline to its own (none lifts it).
      group->interest.Add(cancel);
      ExtendRunDeadline(*group, deadline);
      group->priority = std::min(group->priority, request.priority);
      group->members.push_back(FlightGroup::Member{cancel, deadline, submit,
                                                   trace, std::move(deliver)});
      return Ticket{shard, group, key, created};
    }
  }
  FinishRequest(shard.get(), trace, submit, &resolved,
                ProblemKindName(request.request.kind));
  deliver(std::move(resolved));
  return Ticket{};
}

void CompletenessService::AdmitBatch(
    const std::vector<ServiceRequest>& requests,
    const std::shared_ptr<const void>& owner, DecisionStream* stream) {
  if (requests.empty()) {
    stream->Finish();
    return;
  }
  const sched::TimePoint submit = sched::Clock::now();
  // Resolve each distinct handle once instead of taking the registry lock
  // per request.
  std::unordered_map<uint64_t, std::shared_ptr<Shard>> shards;
  for (const ServiceRequest& request : requests) {
    auto [it, inserted] = shards.try_emplace(request.setting.id);
    if (inserted) it->second = FindShard(request.setting);
  }
  auto sink = std::make_shared<BatchSink>(stream, requests.size());
  std::vector<std::pair<Ticket, const DecisionRequest*>> admitted;
  for (size_t i = 0; i < requests.size(); ++i) {
    Ticket ticket = Admit(shards[requests[i].setting.id], requests[i], submit,
                          [sink, i](Decision decision) {
                            sink->Deliver(i, std::move(decision));
                          });
    if (ticket.group != nullptr) {
      admitted.emplace_back(std::move(ticket), &requests[i].request);
    }
  }
  // Only now, with every duplicate in the batch joined to its group, are
  // the owner tasks queued.
  for (const auto& [ticket, request] : admitted) {
    Dispatch(ticket, request, owner);
  }
}

void CompletenessService::Dispatch(const Ticket& ticket,
                                   const DecisionRequest* request,
                                   std::shared_ptr<const void> keep_alive) {
  if (workers_.empty() || tls_on_worker_thread) {
    // A pool thread must never leave work parked on the queue it drains.
    RunOwner(ticket, request, sched::TaskOutcome::kRun, sched::kNotQueued);
    return;
  }
  if (!ticket.created) return;  // the group's creator queues its owner
  sched::Task task;
  task.tenant = ticket.shard->id;
  {
    MutexLock lock(ticket.shard->mu);
    task.priority = ticket.group->priority;
  }
  task.deadline = sched::TimePoint(sched::Clock::duration(
      ticket.group->run_deadline.load(std::memory_order_relaxed)));
  task.fn = [this, ticket, request, keep_alive = std::move(keep_alive)](
                sched::TaskOutcome outcome, std::chrono::microseconds wait) {
    RunOwner(ticket, request, outcome, wait);
  };
  if (!queue_.Push(std::move(task))) {
    task.fn(sched::TaskOutcome::kRejected, sched::kNotQueued);
  }
}

void CompletenessService::RunOwner(const Ticket& ticket,
                                   const DecisionRequest* request,
                                   sched::TaskOutcome outcome,
                                   std::chrono::microseconds wait) {
  Shard& shard = *ticket.shard;
  FlightGroup& group = *ticket.group;
  Decision decision;
  std::optional<size_t> billed;
  bool evaluate = false;
  {
    MutexLock lock(shard.mu);
    CountWaitLocked(shard.counters, wait, shard.metrics.queue_wait);
    if (group.started) return;  // claimed by another participant
    group.started = true;
    // The first live member is charged with the group's outcome; only a
    // live member keeps the computation alive.
    if (outcome != sched::TaskOutcome::kRejected) {
      const sched::TimePoint now = sched::Clock::now();
      for (size_t i = 0; i < group.members.size() && !billed; ++i) {
        const FlightGroup::Member& member = group.members[i];
        if (!member.cancel.cancelled() && member.deadline >= now) billed = i;
      }
    }
    if (!billed) {
      decision = outcome == sched::TaskOutcome::kRejected ? RejectedDecision()
                                                          : ExpiredDecision();
    } else if (group.restores != shard.restores &&
               shard.cache->Get(ticket.key, &decision)) {
      // Admission missed, and only a LoadCaches restore can have cached
      // the key since: the group is the key's one writer.
      ++shard.counters.cache_hits;
      decision.from_cache = true;
    } else {
      ++shard.counters.cache_misses;
      evaluate = true;
      // The billed member's timeline gains the evaluate / cache-store
      // phases, and later joiners see which sampled run they joined.
      group.run_trace = group.members[*billed].trace;
    }
    // A group that will not run retires now: a late arrival must not join
    // a fate decided without it.
    if (!evaluate) shard.in_flight.erase(ticket.key);
  }
  if (evaluate) {
    SearchOptions effective = request->options;
    // The run polls only the members' joint interest: it aborts once EVERY
    // member — including ones joining mid-run — has cancelled, or past the
    // LATEST member deadline (re-read each poll). The group outlives the
    // evaluation (the ticket holds it), so the pointer stays valid.
    effective.deadline = sched::kNoDeadline;
    effective.cancel = group.interest.token();
    effective.shared_deadline = &group.run_deadline;
    decision = RunEvaluation(shard, *request, &effective, group.run_trace);
  }
  Publish(shard, ticket, decision, billed, evaluate,
          ProblemKindName(request->kind));
}

void CompletenessService::Publish(Shard& shard, const Ticket& ticket,
                                  const Decision& decision,
                                  std::optional<size_t> billed, bool evaluated,
                                  const char* kind) {
  FlightGroup& group = *ticket.group;
  std::vector<FlightGroup::Member> members;
  std::vector<Decision> decisions;
  {
    MutexLock lock(shard.mu);
    if (evaluated) {
      const bool aborted = IsAbortStatus(decision.status);
      shard.counters.search += decision.stats;
      if (!decision.status.ok() && !aborted) ++shard.counters.errors;
      if (aborted) ReclassifyAbortLocked(shard.counters, decision);
      const bool memoize = shard.cache->capacity() > 0;
      if (memoize && IsCacheableDecision(decision)) {
        // A profile attributes one evaluation: hits carry none.
        Decision cached = decision;
        cached.profile.reset();
        const bool admitted = shard.cache->Put(ticket.key, std::move(cached));
        if (group.run_trace != nullptr) {
          group.run_trace->AnnotatePhase(admitted ? "admitted"
                                                  : "admission rejected");
        }
      } else if (group.run_trace != nullptr) {
        group.run_trace->AnnotatePhase(memoize ? "not cacheable"
                                               : "memoization off");
      }
      // Retire the group before publishing: late arrivals hit the cache.
      shard.in_flight.erase(ticket.key);
    }
    members = std::move(group.members);
    group.members.clear();
    // Classify every other member while the counters are consistent with
    // this cancellation snapshot (a token flipping later is too late: the
    // result is already being published).
    decisions.reserve(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      Decision& out = decisions.emplace_back(decision);
      if (i == billed) continue;  // charged at claim time
      out.profile.reset();  // the run's attribution is the billed member's
      if (members[i].cancel.cancelled()) {
        ++shard.counters.cancelled;
        out = CancelledDecision();
      } else if (IsShedDecision(decision)) {
        CountShedLocked(shard.counters, decision.status);
      } else {
        ++shard.counters.cache_hits;
        ++shard.counters.coalesced;
        out.from_cache = true;
        AppendNote(&out, "coalesced with identical in-flight request");
      }
    }
  }
  // Delivery runs outside the shard lock: callbacks may re-enter.
  for (size_t i = 0; i < members.size(); ++i) {
    if (!evaluated && members[i].trace != nullptr) {
      if (IsShedDecision(decision)) {
        members[i].trace->Phase("shed");
      } else {
        members[i].trace->AnnotatePhase("served from cache at claim time");
      }
    }
    FinishRequest(&shard, members[i].trace, members[i].submit, &decisions[i],
                  kind);
    members[i].deliver(std::move(decisions[i]));
  }
}

Decision CompletenessService::Decide(const ServiceRequest& request) {
  const sched::TimePoint submit = sched::Clock::now();
  // Shared with the delivery callback: another thread may still be inside
  // set_value when this one wakes and returns.
  auto result = std::make_shared<std::promise<Decision>>();
  std::future<Decision> future = result->get_future();
  Ticket ticket = Admit(FindShard(request.setting), request, submit,
                        [result](Decision decision) {
                          result->set_value(std::move(decision));
                        });
  // A synchronous caller never blocks on a group parked in the queue (with
  // every worker blocked that way the pool would wedge): it runs the group
  // itself unless another participant already is.
  if (ticket.group != nullptr) {
    RunOwner(ticket, &request.request, sched::TaskOutcome::kRun,
             sched::kNotQueued);
  }
  return future.get();
}

std::vector<Decision> CompletenessService::SubmitBatch(
    const std::vector<ServiceRequest>& requests) {
  DecisionStream stream;
  AdmitBatch(requests, nullptr, &stream);
  std::vector<Decision> results(requests.size());
  stream.Drain([&results](StreamedDecision item) {
    results[item.index] = std::move(item.decision);
  });
  return results;
}

void CompletenessService::SubmitStream(
    const std::vector<ServiceRequest>& requests, DecisionStream* stream) {
  // This flavor returns before delivery completes, so the owner tasks must
  // not reference the caller's vector: admit a private copy pinned by every
  // task until the last one ran.
  auto owned = std::make_shared<const std::vector<ServiceRequest>>(requests);
  AdmitBatch(*owned, owned, stream);
}

std::future<Decision> CompletenessService::SubmitAsync(ServiceRequest request) {
  auto promise = std::make_shared<std::promise<Decision>>();
  std::future<Decision> future = promise->get_future();
  SubmitAsync(std::move(request), [promise](Decision decision) {
    promise->set_value(std::move(decision));
  });
  return future;
}

void CompletenessService::SubmitAsync(
    ServiceRequest request, std::function<void(Decision)> on_complete) {
  // Routed at submission time: releasing the setting after admission does
  // not fail requests already in the system.
  const sched::TimePoint submit = sched::Clock::now();
  Ticket ticket = Admit(FindShard(request.setting), request, submit,
                        std::move(on_complete));
  if (ticket.group == nullptr) return;
  auto owned =
      std::make_shared<const DecisionRequest>(std::move(request.request));
  Dispatch(ticket, owned.get(), owned);
}

namespace {

/// Folds the cache-lifecycle stats into a shard's request counters. The
/// shard counters never carry these fields themselves — evictions can be
/// triggered by ANOTHER shard's insert (budget pressure), so the cache is
/// the one source of truth and the accessors overlay at read time.
EngineCounters WithCacheStats(EngineCounters counters,
                              const cache::CacheStats& cache_stats) {
  counters.evictions = cache_stats.evictions;
  counters.admission_rejects = cache_stats.admission_rejects;
  counters.cache_bytes = cache_stats.bytes;
  return counters;
}

}  // namespace

Result<EngineCounters> CompletenessService::counters(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  const cache::CacheStats cache_stats = shard->cache->stats();
  MutexLock lock(shard->mu);
  return WithCacheStats(shard->counters, cache_stats);
}

EngineCounters CompletenessService::TotalCounters() const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    MutexLock lock(registry_mu_);
    shards.reserve(shards_.size());
    for (const auto& [id, shard] : shards_) shards.push_back(shard);
  }
  EngineCounters total;
  for (const std::shared_ptr<Shard>& shard : shards) {
    const cache::CacheStats cache_stats = shard->cache->stats();
    MutexLock lock(shard->mu);
    total += WithCacheStats(shard->counters, cache_stats);
  }
  return total;
}

std::string CompletenessService::DumpMetrics(obs::DumpFormat format) const {
  obs::MetricsDump dump;
  metrics_registry_.DumpInto(&dump);

  // Derived per-tenant outcome counters, computed from the shard
  // EngineCounters at dump time: the counters are the request-partition
  // source of truth (requests == hits + misses + rejected + expired +
  // cancelled), so deriving rather than double-counting on the hot path
  // keeps the exposition consistent with counters()/TotalCounters() by
  // construction. Sorted by handle id for deterministic output.
  std::vector<std::pair<uint64_t, std::shared_ptr<Shard>>> shards;
  {
    MutexLock lock(registry_mu_);
    shards.reserve(shards_.size());
    for (const auto& [id, shard] : shards_) shards.emplace_back(id, shard);
  }
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<uint64_t, EngineCounters>> snapshots;
  snapshots.reserve(shards.size());
  for (const auto& [id, shard] : shards) {
    MutexLock shard_lock(shard->mu);
    snapshots.emplace_back(id, shard->counters);
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  struct Outcome {
    const char* name;
    uint64_t EngineCounters::* field;
  };
  static constexpr Outcome kOutcomes[] = {
      {"hit", &EngineCounters::cache_hits},
      {"miss", &EngineCounters::cache_misses},
      {"rejected", &EngineCounters::rejected},
      {"expired", &EngineCounters::expired},
      {"cancelled", &EngineCounters::cancelled},
  };
  // Outcome-major order keeps each hand-added family's rows contiguous, so
  // the Prometheus renderer emits one HELP/TYPE header per family.
  for (const Outcome& outcome : kOutcomes) {
    for (const auto& [id, counters] : snapshots) {
      dump.AddCounter(
          obs::kMetricDecisionsTotal,
          {{"outcome", outcome.name}, {"tenant", std::to_string(id)}},
          counters.*outcome.field);
    }
  }
  for (const auto& [id, counters] : snapshots) {
    dump.AddCounter(obs::kMetricErrorsTotal, {{"tenant", std::to_string(id)}},
                    counters.errors);
  }
  // Binary identity + uptime, so a scrape can tell which relcomp build
  // answered it and how long the process has been serving.
  dump.AddGauge(obs::kMetricBuildInfo,
                {{"git", BuildGitRevision()}, {"version", BuildVersion()}}, 1);
  dump.AddGauge(obs::kMetricUptimeSeconds, {},
                std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::steady_clock::now() - start_time_)
                    .count());
  dump.AddCounter(obs::kMetricTracesSampledTotal, {}, tracer_.sampled());
  dump.AddGauge(obs::kMetricSlowLogEntries, {},
                static_cast<int64_t>(slow_log_.size()));
  dump.AddCounter(obs::kMetricWatchdogStallsTotal, {},
                  watchdog_stall_count_.load(std::memory_order_relaxed));
  if (options_.trace_ring > 0) {
    dump.AddGauge(obs::kMetricTraceRingEntries, {},
                  static_cast<int64_t>(trace_sink_.size()));
    dump.AddCounter(obs::kMetricTraceRingDroppedTotal, {},
                    trace_sink_.dropped());
  }

  // Sliding-window views: recent request rates (1s/10s/60s) and recent
  // latency distributions, service-wide and per tenant. One clock read so
  // every window row answers for the same instant.
  if (window_ != nullptr) {
    const auto now = obs::WindowedHistogram::Clock::now();
    static constexpr uint64_t kWindows[] = {1, 10, 60};
    for (const uint64_t secs : kWindows) {
      dump.AddRate(obs::RequestsRateFamily(secs), {}, window_->Rate(secs, now));
      for (const auto& [id, shard] : shards) {
        if (shard->window == nullptr) continue;
        dump.AddRate(obs::TenantRequestsRateFamily(secs),
                     {{"tenant", std::to_string(id)}},
                     shard->window->Rate(secs, now));
      }
    }
    static constexpr uint64_t kLatencyWindows[] = {10, 60};
    for (const uint64_t secs : kLatencyWindows) {
      dump.AddHistogram(obs::RecentLatencyFamily(secs), {},
                        window_->Snapshot(secs, now));
    }
  }
  return dump.Render(format);
}

std::vector<obs::SlowEntry> CompletenessService::SlowDecisions() const {
  return slow_log_.Worst();
}

std::string CompletenessService::DumpTraces() const {
  return obs::RenderChromeTrace(trace_sink_.Snapshot());
}

Result<cache::CacheStats> CompletenessService::CacheStats(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return shard->cache->stats();
}

Status CompletenessService::SaveCaches(const std::string& path) const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    MutexLock lock(registry_mu_);
    shards.reserve(shards_.size());
    for (const auto& [id, shard] : shards_) shards.push_back(shard);
  }
  cache::Snapshot snapshot;
  for (const std::shared_ptr<Shard>& shard : shards) {
    if (shard->cache->capacity() == 0) continue;  // nothing cached, ever
    cache::SnapshotShard image;
    image.setting_key = shard->setting_key;
    image.entries = shard->cache->SnapshotEntries();
    if (image.entries.empty()) continue;
    snapshot.shards.push_back(std::move(image));
  }
  return cache::SaveSnapshot(snapshot, path);
}

Result<size_t> CompletenessService::LoadCaches(const std::string& path) {
  Result<cache::Snapshot> snapshot = cache::LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  size_t accepted = 0;
  for (cache::SnapshotShard& image : snapshot->shards) {
    std::shared_ptr<Shard> live;
    {
      MutexLock lock(registry_mu_);
      auto it = handle_by_fingerprint_.find(image.setting_key);
      if (it == handle_by_fingerprint_.end()) {
        // Stage for a future RegisterSetting with this fingerprint; a
        // re-load of the same snapshot replaces the staged entries.
        pending_warm_[image.setting_key] = std::move(image.entries);
        ++accepted;
        continue;
      }
      live = shards_.at(it->second);
    }
    // A live shard with its cache disabled can never apply the image:
    // dropped, and NOT counted as accepted.
    if (live->cache->capacity() == 0) continue;
    for (auto& [key, decision] : image.entries) {
      live->cache->Restore(key, std::move(decision));
    }
    MutexLock lock(live->mu);
    ++live->restores;
    ++accepted;
  }
  return accepted;
}

Status CompletenessService::ClearCache(SettingHandle handle) {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  shard->cache->Clear();
  return Status::OK();
}

void CompletenessService::RecorderLoop() {
  using std::chrono::microseconds;
  // Tick at the finer of the two cadences being served: the sampling
  // interval, and half the stall threshold (so a stall is flagged within
  // one threshold period of the heartbeat going quiet).
  uint64_t tick_us = options_.recorder_interval_ms * 1000;
  if (options_.watchdog_stall_micros > 0) {
    const uint64_t half =
        std::max<uint64_t>(options_.watchdog_stall_micros / 2, 100);
    tick_us = tick_us == 0 ? half : std::min(tick_us, half);
  }
  const uint64_t interval_us = options_.recorder_interval_ms * 1000;
  // Start "due": the first tick takes the first sample.
  auto last_sample =
      std::chrono::steady_clock::now() - microseconds(interval_us);
  for (;;) {
    {
      MutexLock lock(recorder_wake_mu_);
      if (!recorder_stop_) {
        recorder_wake_cv_.WaitFor(recorder_wake_mu_, microseconds(tick_us));
      }
      if (recorder_stop_) return;
    }
    const auto now = std::chrono::steady_clock::now();

    bool flagged_stall = false;
    if (options_.watchdog_stall_micros > 0) {
      for (const auto& record : active_.Snapshot()) {
        const auto last_heartbeat = obs::ActiveEvaluations::Clock::duration(
            record->last_heartbeat.load(std::memory_order_relaxed));
        const int64_t age_us = std::chrono::duration_cast<microseconds>(
                                   now.time_since_epoch() - last_heartbeat)
                                   .count();
        if (age_us < 0 ||
            static_cast<uint64_t>(age_us) <= options_.watchdog_stall_micros) {
          continue;
        }
        // exchange(): each stalled evaluation is flagged exactly once,
        // even across ticks while it stays stuck.
        if (record->flagged.exchange(true, std::memory_order_relaxed)) {
          continue;
        }
        watchdog_stall_count_.fetch_add(1, std::memory_order_relaxed);
        flagged_stall = true;
        const char* loop = record->loop.load(std::memory_order_relaxed);
        const uint64_t steps = record->steps.load(std::memory_order_relaxed);
        const std::string where =
            std::string("tenant=") + record->tenant + " kind=" + record->kind +
            " loop=" + (loop != nullptr ? loop : "(before first checkpoint)") +
            " steps=" + std::to_string(steps);
        obs::SlowEntry entry;
        entry.micros = static_cast<uint64_t>(
            std::chrono::duration_cast<microseconds>(now - record->start)
                .count());
        entry.trace_id = record->trace_id;
        entry.tenant = record->tenant;
        entry.kind = record->kind;
        entry.note = "watchdog: no checkpoint progress for " +
                     std::to_string(age_us) + "us; " + where;
        slow_log_.Offer(std::move(entry));
        recorder_.Annotate("watchdog: evaluation stalled, " + where, now);
      }
    }

    if (interval_us > 0 && now - last_sample >= microseconds(interval_us)) {
      last_sample = now;
      obs::RecorderSample sample;
      sample.at = now;
      if (inflight_gauge_ != nullptr) {
        sample.inflight = inflight_gauge_->value();
      }
      if (window_ != nullptr) {
        sample.rate_1s = window_->Rate(1, now);
        sample.rate_10s = window_->Rate(10, now);
        sample.p95_10s = static_cast<uint64_t>(
            window_->Snapshot(10, now).Quantile(0.95));
      }
      sample.queue_depth = queue_.depth();
      sample.active = active_.size();
      sample.stalled = watchdog_stall_count_.load(std::memory_order_relaxed);
      recorder_.Add(std::move(sample));
      obs::PublishAbortReport(ObsReport());
    } else if (flagged_stall) {
      // No sample due, but the vitals just changed in the way the abort
      // report most needs to show.
      obs::PublishAbortReport(ObsReport());
    }
  }
}

std::string CompletenessService::ObsReport() const {
  const auto now = std::chrono::steady_clock::now();
  const auto us_since = [now](std::chrono::steady_clock::time_point at) {
    return std::chrono::duration_cast<std::chrono::microseconds>(now - at)
        .count();
  };
  std::ostringstream out;
  out << "=== relcomp obs report ===\n";
  out << "in-flight: "
      << (inflight_gauge_ != nullptr ? inflight_gauge_->value() : 0)
      << "  queue depth: " << queue_.depth()
      << "  active evaluations: " << active_.size() << "  watchdog stalls: "
      << watchdog_stall_count_.load(std::memory_order_relaxed) << "\n";
  if (window_ != nullptr) {
    const obs::HistogramData recent = window_->Snapshot(10, now);
    out << "rates: " << std::fixed << std::setprecision(1)
        << window_->Rate(1, now) << "/s (1s), " << window_->Rate(10, now)
        << "/s (10s), " << window_->Rate(60, now) << "/s (60s)\n";
    out << "latency (10s window): p50=" << std::setprecision(0)
        << recent.Quantile(0.5) << "us p95=" << recent.Quantile(0.95)
        << "us p99=" << recent.Quantile(0.99) << "us max=" << recent.max
        << "us n=" << recent.count << "\n";
  }

  std::vector<std::pair<uint64_t, std::shared_ptr<Shard>>> shards;
  {
    MutexLock lock(registry_mu_);
    shards.reserve(shards_.size());
    for (const auto& [id, shard] : shards_) shards.emplace_back(id, shard);
  }
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, shard] : shards) {
    if (shard->window == nullptr) continue;
    out << "tenant " << id << ": " << std::setprecision(1)
        << shard->window->Rate(10, now) << "/s (10s), queued "
        << queue_.TenantDepth(id) << "\n";
  }

  if (active_.size() > 0) out << RenderActiveEvaluations();

  const auto samples = recorder_.Snapshot();
  if (!samples.empty()) {
    out << "flight recorder (" << samples.size()
        << " samples, oldest first):\n";
    for (const obs::RecorderSample& sample : samples) {
      out << "  t-" << std::setprecision(1)
          << static_cast<double>(us_since(sample.at)) / 1e6 << "s ";
      if (!sample.annotation.empty()) {
        out << sample.annotation << "\n";
        continue;
      }
      out << "inflight=" << sample.inflight << " rate1s=" << sample.rate_1s
          << " rate10s=" << sample.rate_10s << " p95_10s=" << sample.p95_10s
          << "us queue=" << sample.queue_depth << " active=" << sample.active
          << " stalled=" << sample.stalled << "\n";
    }
  }

  const auto slow = slow_log_.Worst();
  if (!slow.empty()) {
    const obs::SlowEntry& worst = slow.front();
    out << "slow log: " << slow.size() << " entries, worst " << worst.micros
        << "us tenant=" << worst.tenant << " kind=" << worst.kind;
    if (worst.trace_id != 0) out << " trace#" << worst.trace_id;
    if (!worst.note.empty()) out << " (" << worst.note << ")";
    out << "\n";
  }
  return out.str();
}

std::string CompletenessService::RenderActiveEvaluations() const {
  const auto now = std::chrono::steady_clock::now();
  const auto active = active_.Snapshot();
  std::ostringstream out;
  out << "active evaluations: " << active.size() << "\n";
  for (const auto& record : active) {
    const char* loop = record->loop.load(std::memory_order_relaxed);
    const auto heartbeat_age =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now.time_since_epoch() -
            obs::ActiveEvaluations::Clock::duration(
                record->last_heartbeat.load(std::memory_order_relaxed)))
            .count();
    const auto running =
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              record->start)
            .count();
    out << "  eval#" << record->id << " tenant=" << record->tenant
        << " kind=" << record->kind;
    if (record->trace_id != 0) out << " trace#" << record->trace_id;
    out << " loop=" << (loop != nullptr ? loop : "-")
        << " steps=" << record->steps.load(std::memory_order_relaxed)
        << " running=" << running << "us heartbeat_age=" << heartbeat_age
        << "us";
    if (record->flagged.load(std::memory_order_relaxed)) out << " [STALLED]";
    out << "\n";
  }
  return out.str();
}

std::string CompletenessService::RenderSlowLog() const {
  const auto slow = slow_log_.Worst();
  std::ostringstream out;
  out << "slow decisions: " << slow.size() << " (slowest first)\n";
  for (const obs::SlowEntry& entry : slow) {
    out << "  " << entry.micros << "us tenant=" << entry.tenant
        << " kind=" << (entry.kind.empty() ? "-" : entry.kind);
    if (entry.trace_id != 0) out << " trace#" << entry.trace_id;
    if (!entry.note.empty()) out << " (" << entry.note << ")";
    out << "\n";
  }
  return out.str();
}

Status CompletenessService::ServeObs(const obs::ObsHttpOptions& options) {
  // The surfaces are the public dump methods, bound to `this`; each runs
  // on an endpoint worker thread and takes only the locks the dump call
  // always took. Safe for the life of the service: the destructor stops
  // the endpoint before any other teardown.
  obs::ObsSurfaces surfaces;
  surfaces.metrics_prometheus = [this] {
    return DumpMetrics(obs::DumpFormat::kPrometheus);
  };
  surfaces.metrics_json = [this] {
    return DumpMetrics(obs::DumpFormat::kJson);
  };
  surfaces.traces_json = [this] { return DumpTraces(); };
  surfaces.slow_text = [this] { return RenderSlowLog(); };
  surfaces.report_text = [this] { return ObsReport(); };
  surfaces.active_text = [this] { return RenderActiveEvaluations(); };
  surfaces.ready = [this] {
    // Ready = at least one registered setting, and the worker pool is
    // live (a zero-worker service runs every submission inline, so the
    // pool is vacuously live).
    const bool pool_live = options_.num_workers == 0 || !workers_.empty();
    return pool_live && num_settings() > 0;
  };
  auto endpoint = std::make_unique<obs::HttpEndpoint>(
      std::move(surfaces), options_.metrics ? &metrics_registry_ : nullptr);
  RELCOMP_RETURN_IF_ERROR(endpoint->Start(options));
  {
    MutexLock lock(registry_mu_);
    if (obs_endpoint_ == nullptr) {
      obs_endpoint_ = std::move(endpoint);
      return Status::OK();
    }
  }
  // Lost a ServeObs race (or the service already serves): the freshly
  // started loser stops outside the lock — its handler threads may be
  // serving a request that wants registry_mu_.
  endpoint.reset();
  return Status::InvalidArgument(
      "ServeObs: this service already has a live observability endpoint");
}

void CompletenessService::StopObs() {
  std::unique_ptr<obs::HttpEndpoint> endpoint;
  {
    MutexLock lock(registry_mu_);
    endpoint = std::move(obs_endpoint_);
  }
  // Stopped (joining handler threads that may take registry_mu_) with
  // the lock released.
  endpoint.reset();
}

uint16_t CompletenessService::obs_port() const {
  MutexLock lock(registry_mu_);
  return obs_endpoint_ != nullptr ? obs_endpoint_->port() : 0;
}

}  // namespace relcomp
