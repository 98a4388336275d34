#include "service/decision.h"

#include <algorithm>
#include <string_view>

#include "core/fingerprint.h"
#include "core/minp.h"
#include "core/rcdp.h"
#include "core/rcqp.h"

namespace relcomp {

namespace {

/// kind ↔ name, indexed by the enum's underlying value. Extending
/// ProblemKind means adding one row here and one case to EvaluateRequest.
constexpr const char* kProblemKindNames[] = {
    "rcdp-strong", "rcdp-weak",   "rcdp-viable", "rcqp-strong",
    "rcqp-weak",   "minp-strong", "minp-viable", "minp-weak",
};
constexpr size_t kNumProblemKinds =
    sizeof(kProblemKindNames) / sizeof(kProblemKindNames[0]);

}  // namespace

const std::vector<ProblemKind>& AllProblemKinds() {
  static const std::vector<ProblemKind> kAll = [] {
    std::vector<ProblemKind> all;
    all.reserve(kNumProblemKinds);
    for (size_t i = 0; i < kNumProblemKinds; ++i) {
      all.push_back(static_cast<ProblemKind>(i));
    }
    return all;
  }();
  return kAll;
}

const char* ProblemKindName(ProblemKind kind) {
  const size_t index = static_cast<size_t>(kind);
  if (index < kNumProblemKinds) return kProblemKindNames[index];
  return "unknown";
}

Result<ProblemKind> ParseProblemKind(const std::string& name) {
  for (ProblemKind kind : AllProblemKinds()) {
    if (name == ProblemKindName(kind)) return kind;
  }
  std::string valid;
  for (ProblemKind kind : AllProblemKinds()) {
    if (!valid.empty()) valid += ", ";
    valid += ProblemKindName(kind);
  }
  return Status::InvalidArgument("unknown problem kind '" + name +
                                 "' (valid kinds: " + valid + ")");
}

std::string Decision::ToString() const {
  // latency_micros stays out on purpose: ToString is compared across
  // submission modes (batch vs stream vs async) in tests and tooling, and
  // latency legitimately differs per delivery. The CLI prints it separately.
  if (!status.ok()) return "error[" + status.ToString() + "]";
  std::string out = answer ? "YES" : "no";
  if (from_cache) out += " (cached)";
  if (!note.empty()) out += " [" + note + "]";
  return out;
}

EngineCounters& EngineCounters::operator+=(const EngineCounters& other) {
  requests += other.requests;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  coalesced += other.coalesced;
  errors += other.errors;
  rejected += other.rejected;
  expired += other.expired;
  cancelled += other.cancelled;
  shed_running += other.shed_running;
  aborted_steps += other.aborted_steps;
  waited += other.waited;
  wait_micros += other.wait_micros;
  max_wait_micros = std::max(max_wait_micros, other.max_wait_micros);
  evictions += other.evictions;
  admission_rejects += other.admission_rejects;
  cache_bytes += other.cache_bytes;
  search += other.search;
  return *this;
}

std::string EngineCounters::ToString(bool verbose) const {
  if (verbose) {
    // Every raw field, declaration order, zeros included: two verbose dumps
    // diff line-for-line no matter which buckets moved between them.
    return "requests=" + std::to_string(requests) +
           " cache_hits=" + std::to_string(cache_hits) +
           " cache_misses=" + std::to_string(cache_misses) +
           " coalesced=" + std::to_string(coalesced) +
           " errors=" + std::to_string(errors) +
           " rejected=" + std::to_string(rejected) +
           " expired=" + std::to_string(expired) +
           " cancelled=" + std::to_string(cancelled) +
           " shed_running=" + std::to_string(shed_running) +
           " aborted_steps=" + std::to_string(aborted_steps) +
           " waited=" + std::to_string(waited) +
           " wait_micros=" + std::to_string(wait_micros) +
           " max_wait_micros=" + std::to_string(max_wait_micros) +
           " evictions=" + std::to_string(evictions) +
           " admission_rejects=" + std::to_string(admission_rejects) +
           " cache_bytes=" + std::to_string(cache_bytes) + " | " +
           search.ToString();
  }
  std::string out = "requests=" + std::to_string(requests) +
                    " cache_hits=" + std::to_string(cache_hits) +
                    " cache_misses=" + std::to_string(cache_misses) +
                    " coalesced=" + std::to_string(coalesced) +
                    " errors=" + std::to_string(errors);
  if (rejected != 0) out += " rejected=" + std::to_string(rejected);
  if (expired != 0) out += " expired=" + std::to_string(expired);
  if (cancelled != 0) out += " cancelled=" + std::to_string(cancelled);
  if (shed_running != 0) {
    out += " shed_running=" + std::to_string(shed_running) +
           " aborted_steps=" + std::to_string(aborted_steps);
  }
  if (waited != 0) {
    out += " avg_wait_us=" + std::to_string(wait_micros / waited) +
           " max_wait_us=" + std::to_string(max_wait_micros);
  }
  if (evictions != 0) out += " evictions=" + std::to_string(evictions);
  if (admission_rejects != 0) {
    out += " admission_rejects=" + std::to_string(admission_rejects);
  }
  if (cache_bytes != 0) out += " cache_bytes=" + std::to_string(cache_bytes);
  return out + " | " + search.ToString();
}

Decision EvaluateRequest(const DecisionRequest& request,
                         const PreparedSetting& prepared,
                         const SearchOptions* options_override) {
  const SearchOptions& options =
      options_override != nullptr ? *options_override : request.options;
  Decision decision;
  CompletenessWitness witness;
  CompletenessWitness* wp = request.want_witness ? &witness : nullptr;
  // Strong/weak RCDP fill `witness` on a "no"; the affirmative kinds below
  // set this flag themselves when they have a witness to attach.
  bool attach_on_no = false;
  bool attach = false;
  Result<bool> answer = true;
  switch (request.kind) {
    case ProblemKind::kRcdpStrong:
      answer = RcdpStrong(request.query, request.cinstance, prepared,
                          options, &decision.stats, wp);
      attach_on_no = true;
      break;
    case ProblemKind::kRcdpWeak:
      answer = RcdpWeak(request.query, request.cinstance, prepared,
                        options, &decision.stats, wp);
      attach_on_no = true;
      break;
    case ProblemKind::kRcdpViable: {
      Instance world;
      answer = RcdpViable(request.query, request.cinstance, prepared,
                          options, &decision.stats,
                          wp != nullptr ? &world : nullptr);
      if (wp != nullptr && answer.ok() && *answer) {
        witness.world = std::move(world);
        witness.note = "complete world of Mod(T, Dm, V) witnessing viability";
        attach = true;
      }
      break;
    }
    case ProblemKind::kRcqpStrong: {
      if (prepared.all_inds()) {
        // Corollary 7.2: all CCs are INDs — decide in PTIME (no witness
        // instance is materialized on this path).
        answer = RcqpStrongInd(request.query, prepared, options,
                               &decision.stats);
        break;
      }
      Result<RcqpSearchResult> found =
          RcqpStrongBounded(request.query, prepared, request.rcqp_max_tuples,
                            options, &decision.stats);
      if (!found.ok()) {
        answer = found.status();
        break;
      }
      answer = found->found;
      if (found->found && wp != nullptr) {
        witness.world = std::move(found->witness);
        witness.note = "complete instance witnessing RCQ(Q, Dm, V) ≠ ∅";
        attach = true;
      }
      if (!found->found && found->bound_exhausted) {
        decision.note = "no witness within " +
                        std::to_string(request.rcqp_max_tuples) +
                        " tuples (conclusive only if the NEXPTIME witness "
                        "bound fits)";
      }
      break;
    }
    case ProblemKind::kRcqpWeak:
      answer = RcqpWeak(request.query, prepared);
      break;
    case ProblemKind::kMinpStrong:
      answer = MinpStrong(request.query, request.cinstance, prepared,
                          options, &decision.stats);
      break;
    case ProblemKind::kMinpViable:
      answer = MinpViable(request.query, request.cinstance, prepared,
                          options, &decision.stats);
      break;
    case ProblemKind::kMinpWeak:
      // Lemma 5.7 dichotomy: CQ has a coDP fast path; the general subset
      // removal handles UCQ/∃FO⁺/FP.
      if (request.query.language() == QueryLanguage::kCQ) {
        answer = MinpWeakCq(request.query, request.cinstance, prepared,
                            options, &decision.stats);
      } else {
        answer = MinpWeak(request.query, request.cinstance, prepared,
                          options, &decision.stats);
      }
      break;
  }
  if (!answer.ok()) {
    decision.status = answer.status();
    return decision;
  }
  decision.answer = *answer;
  if (wp != nullptr && ((attach_on_no && !decision.answer) || attach)) {
    decision.witness =
        std::make_shared<const CompletenessWitness>(std::move(witness));
  }
  return decision;
}

Decision DecideCold(const DecisionRequest& request,
                    const PartiallyClosedSetting& setting) {
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(setting);
  if (!prepared.ok()) {
    Decision decision;
    decision.status = prepared.status();
    return decision;
  }
  return EvaluateRequest(request, *prepared);
}

RequestCacheKey RequestKeyFor(const PreparedSetting& prepared,
                              const DecisionRequest& request) {
  // Walk the request's query and c-instance once; both digests then mix
  // the same handful of words from independently-seeded states.
  const std::string_view kind = ProblemKindName(request.kind);
  const uint64_t query_print = FingerprintQuery(request.query);
  // RCQP quantifies over all instances; leaving T out of its key lets
  // audits of different databases share one RCQP verdict per query.
  const bool keyed_on_instance = request.kind != ProblemKind::kRcqpStrong &&
                                 request.kind != ProblemKind::kRcqpWeak;
  const uint64_t cinstance_print =
      keyed_on_instance
          ? FingerprintCInstance(request.cinstance, prepared.schema(),
                                 prepared.schema_fingerprint())
          : 0;

  auto digest = [&](StableHasher h) {
    h.Mix(prepared.fingerprint());
    h.Mix(kind);
    h.Mix(query_print);
    if (keyed_on_instance) h.Mix(cinstance_print);
    h.Mix(request.options.max_steps);
    h.Mix(static_cast<uint64_t>(request.want_witness ? 1 : 0));
    if (request.kind == ProblemKind::kRcqpStrong) {
      h.Mix(static_cast<uint64_t>(request.rcqp_max_tuples));
    }
    return h.digest();
  };
  RequestCacheKey key;
  key.primary = digest(StableHasher());
  key.check = digest(StableHasher(/*seed=*/0x5ca1ab1e5eed5ULL));
  return key;
}

}  // namespace relcomp
