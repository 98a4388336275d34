// The decision vocabulary of the multi-setting CompletenessService: problem
// kinds, decision requests / answers (including counterexample witnesses),
// the aggregate counters, the stable request cache keys, and the ONE
// kind→decider dispatch table (EvaluateRequest) that every entry point —
// service shards and the cold per-call baseline — routes through.
#ifndef RELCOMP_SERVICE_DECISION_H_
#define RELCOMP_SERVICE_DECISION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/prepared_setting.h"
#include "core/types.h"

namespace relcomp {

/// The decision problems the service serves (problem × model).
enum class ProblemKind {
  kRcdpStrong,   ///< is T strongly complete for Q?           (Thm 4.1)
  kRcdpWeak,     ///< is T weakly complete for Q?             (Thm 5.1)
  kRcdpViable,   ///< is some world of T complete for Q?      (Thm 6.1)
  kRcqpStrong,   ///< does any complete instance exist?       (Thm 4.5/7.2)
  kRcqpWeak,     ///< ... in the weak model (O(1), Thm 5.4)
  kMinpStrong,   ///< is T minimally complete, all worlds?    (Thm 4.8)
  kMinpViable,   ///< ... in some world                       (Cor 6.3)
  kMinpWeak,     ///< ... in the weak model                   (Thm 5.6/5.7)
};

/// All problem kinds, in declaration order. The one list that drives
/// ProblemKindName, ParseProblemKind, and the CLI help text.
const std::vector<ProblemKind>& AllProblemKinds();

/// Human-readable kind name ("rcdp-strong", ...), matching the CLI flags.
const char* ProblemKindName(ProblemKind kind);

/// Parses a ProblemKindName string; kInvalidArgument (listing every valid
/// name) on unknown names.
Result<ProblemKind> ParseProblemKind(const std::string& name);

/// One unit of decision work: problem kind × query × audited c-instance ×
/// budget. RCQP kinds ignore `cinstance` (the problem quantifies over all
/// instances).
struct DecisionRequest {
  ProblemKind kind = ProblemKind::kRcdpStrong;
  Query query;
  CInstance cinstance;
  SearchOptions options;
  /// Witness-size bound for the non-IND RCQP search (Theorem 4.5 leaves the
  /// NEXPTIME bound exponential; callers pick a practical cutoff).
  size_t rcqp_max_tuples = 3;
  /// Ask the decider for a CompletenessWitness (Decision::witness): the
  /// incomplete world / missing tuple for RCDP strong/weak "no", the
  /// complete world for RCDP viable "YES", the witnessing instance for the
  /// bounded RCQP "YES". MINP and weak-model RCQP produce no witness. Part
  /// of the memoization key — witness-bearing runs are cached separately.
  bool want_witness = false;
};

/// The service's answer to one request.
struct Decision {
  Status status;           ///< decider outcome; `answer` meaningful iff ok()
  bool answer = false;     ///< the yes/no decision
  bool from_cache = false; ///< served from the cache or coalesced (see note)
  std::string note;        ///< qualifiers (RCQP bound exhausted, coalescing)
  SearchStats stats;       ///< work done; the original run's stats on hits
  /// Counterexample / witness, when `want_witness` was set and the decider
  /// produced one. Shared so cached and coalesced copies stay cheap.
  std::shared_ptr<const CompletenessWitness> witness;
  /// End-to-end latency, submit → delivery, stamped by the service at every
  /// delivery: a cache hit or coalesced waiter reports ITS OWN wait, not
  /// the original evaluation's (and a restored snapshot entry is re-stamped
  /// at serve time — the field is never persisted). 0 when the decision
  /// never went through the service (DecideCold, hand-built decisions).
  uint64_t latency_micros = 0;
  /// Per-loop search attribution for the evaluation that produced this
  /// decision (null on cache hits, coalesced copies, sheds, and decisions
  /// that never went through a service evaluation). Shared const: the
  /// profile is sealed (Finish) before it is attached.
  std::shared_ptr<const SearchProfile> profile;

  std::string ToString() const;
};

/// Aggregate counters, per setting shard (and summed service-wide).
/// `cache_misses` counts real decider evaluations (even with memoization
/// off); `cache_hits` counts requests served without recomputation — LRU
/// hits plus coalesced duplicates; `coalesced` is the subset of hits that
/// piggy-backed on an identical in-flight or same-batch request. The
/// scheduler outcomes partition the remainder: `rejected` (admission
/// control refused the request), `expired` (deadline passed — while queued
/// OR mid-evaluation at a cooperative checkpoint), `cancelled` (every
/// waiter cancelled — before evaluation OR while it ran). Every request
/// lands in exactly one bucket:
///   requests == cache_hits + cache_misses + rejected + expired + cancelled.
/// `shed_running` is the subset of expired + cancelled whose evaluation had
/// already started when it aborted, and `aborted_steps` the search work
/// those aborted runs burned before the checkpoint stopped them — together
/// they make mid-run shedding visible separately from queue-time shedding.
/// Wait-time counters cover scheduled tasks only (inline and coalesced
/// requests never sit in the queue): `wait_micros` sums queue residency
/// over `waited` tasks; `max_wait_micros` is the worst single wait.
///
/// The cache-lifecycle counters sit OUTSIDE the request partition — they
/// describe what happened to cache ENTRIES, not requests: `evictions`
/// counts entries removed by capacity or shared-budget pressure (possibly
/// triggered by ANOTHER shard's insert), `admission_rejects` counts
/// computed decisions the frequency-sketch filter or the byte budget
/// refused to cache (the request itself was still served, and counted as
/// a miss), and `cache_bytes` is a gauge: the shard cache's resident
/// bytes at read time (summed across shards by TotalCounters).
struct EngineCounters {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t coalesced = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;
  uint64_t expired = 0;
  uint64_t cancelled = 0;
  uint64_t shed_running = 0;   ///< evaluations aborted after they started
  uint64_t aborted_steps = 0;  ///< search steps spent inside aborted runs
  uint64_t waited = 0;
  uint64_t wait_micros = 0;
  uint64_t max_wait_micros = 0;  ///< aggregated with max, not sum
  uint64_t evictions = 0;          ///< cache entries evicted (any pressure)
  uint64_t admission_rejects = 0;  ///< decisions the cache refused to admit
  uint64_t cache_bytes = 0;        ///< resident cache bytes (gauge)
  SearchStats search;  ///< per-request stats merged via SearchStats::Merge

  EngineCounters& operator+=(const EngineCounters& other);
  /// Compact mode (default) omits zero-valued optional fields and prints
  /// derived wait figures; verbose mode prints EVERY raw field, zeros
  /// included, so before/after counter diffs align column-for-column.
  std::string ToString(bool verbose = false) const;
};

/// THE kind→decider dispatch table: decides one request against a prepared
/// setting, with witness plumbing. No cache, no counters — service shards
/// and DecideCold both call this one function, so a new ProblemKind is
/// wired up in exactly one place. `options_override`, when given, replaces
/// the request's own SearchOptions for this evaluation — the service uses
/// it to inject the coalesced group's joint cancellation token and run
/// deadline, and per-shard step-budget defaults, without copying the
/// (heavy) request.
Decision EvaluateRequest(const DecisionRequest& request,
                         const PreparedSetting& prepared,
                         const SearchOptions* options_override = nullptr);

/// Decides one request by preparing the raw setting for this call alone
/// (validation, fingerprint, Adom seed, CC plans) — the cold baseline the
/// CLI's --compare mode and the batch benchmark measure the service
/// against. A setting that fails validation comes back as the decision's
/// status.
Decision DecideCold(const DecisionRequest& request,
                    const PartiallyClosedSetting& setting);

/// Two independently-seeded digests of one request under one setting: a
/// 64-bit fingerprint alone would hand a colliding request another
/// request's verdict.
struct RequestCacheKey {
  uint64_t primary = 0;
  uint64_t check = 0;
  friend bool operator==(const RequestCacheKey& a, const RequestCacheKey& b) {
    return a.primary == b.primary && a.check == b.check;
  }
};
struct RequestCacheKeyHash {
  size_t operator()(const RequestCacheKey& k) const {
    return static_cast<size_t>(k.primary ^ (k.check * 0x9e3779b97f4a7c15ULL));
  }
};

/// Stable memoization / coalescing key of `request` under `prepared`. The
/// query and c-instance enter as their structural fingerprints
/// (core/fingerprint.h), which keep every value's type: requests that
/// differ only in 1 vs "1", or in the variable x0 vs the constant "x0",
/// get different keys. A c-instance over prepared.schema() reuses the
/// setting's schema digest instead of hashing its schema again. RCQP kinds
/// leave the audited instance out of the key (the problem quantifies over
/// all instances), so audits of different databases share one RCQP
/// verdict per query.
RequestCacheKey RequestKeyFor(const PreparedSetting& prepared,
                              const DecisionRequest& request);

}  // namespace relcomp

#endif  // RELCOMP_SERVICE_DECISION_H_
