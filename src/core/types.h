// Shared types for the decision procedures: the partially closed setting
// (Dm, V), search budgets, statistics, and counterexample witnesses.
#ifndef RELCOMP_CORE_TYPES_H_
#define RELCOMP_CORE_TYPES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ctable/cinstance.h"
#include "data/instance.h"
#include "query/containment.h"
#include "query/query.h"
#include "sched/cancel.h"
#include "util/status.h"

namespace relcomp {

/// The fixed context of every decision problem: database schema R, master
/// schema Rm, master data Dm, and the set V of containment constraints.
struct PartiallyClosedSetting {
  DatabaseSchema schema;
  DatabaseSchema master_schema;
  Instance dm;
  CCSet ccs;

  /// Validates Dm against the master schema (CheckSchemaMatches) and every
  /// CC against both schemas.
  Status Validate() const;
};

/// The one input contract of every decider, and Validate()'s rule for Dm:
/// `have` holds `want`'s relations in order, under the same names, with the
/// same arities and attribute domains (attribute names may differ). Fails
/// with kInvalidArgument naming the first relation, by position, that
/// differs; `have_what` and `want_what` name the two sides in the message.
Status CheckSchemaMatches(const DatabaseSchema& have,
                          const DatabaseSchema& want,
                          const char* have_what = "instance",
                          const char* want_what = "setting schema");

/// The Table I cell a decider implements: one problem in one model (RCQP's
/// viable model is its strong model, Lemma 4.4). kBoundedSearch is no cell:
/// the searches of core/bounded.h take every language.
enum class TableICell {
  kRcdpStrong,   ///< undecidable for FO and FP (Theorem 4.1)
  kRcdpWeak,     ///< undecidable for FO (Theorem 5.1)
  kRcdpViable,   ///< undecidable for FO and FP (Theorem 6.1)
  kRcqpStrong,   ///< undecidable for FO and FP (Theorem 4.5)
  kRcqpWeak,     ///< undecidable for FO (Theorem 5.4)
  kMinpStrong,   ///< undecidable for FO and FP (Theorem 4.8)
  kMinpWeak,     ///< undecidable for FO (Theorem 5.6)
  kMinpViable,   ///< undecidable for FO and FP (Corollary 6.3)
  kBoundedSearch,
};

/// The query contract of every decider that takes Q, checked at entry: Q is
/// over `schema` (Query::Validate, kInvalidArgument), then `cell` decides
/// Q's language (else kUndecidable, as in "RCDP in the strong model is
/// undecidable for FO (Theorem 4.1)"). Past it nothing in src/core/ fails
/// on Q.
Status CheckQuery(const Query& q, const DatabaseSchema& schema,
                  TableICell cell);

/// Per-evaluation search attribution: which core search loops ran, for how
/// long, and how many steps each charged. A SearchProfile is a single-
/// threaded phase machine fed by the SearchCheckpoint RAII (construction
/// enters a loop, destruction exits it); nested loops pause the enclosing
/// loop's slice and reopen a fresh one on return, so the recorded slices
/// are non-overlapping and tile the time spent inside instrumented loops
/// exactly — the property that lets exported traces render per-loop
/// sub-slices whose durations sum to the evaluate span (gaps between
/// slices are evaluation work outside any instrumented loop).
///
/// NOT thread-safe by design: one evaluation runs on one thread, and the
/// profile becomes read-only (shared_ptr<const>) once the evaluation
/// finishes. Every time-taking method accepts an explicit time point so
/// tests can drive deterministic timelines.
class SearchProfile {
 public:
  using Clock = std::chrono::steady_clock;

  /// Slices beyond this cap are counted in dropped_slices() instead of
  /// stored; per-loop totals keep accumulating regardless.
  static constexpr size_t kMaxSlices = 96;

  /// One closed sub-slice: [start, end) microseconds relative to Start(),
  /// tagged with the loop's short stable name ("ground", "mod-enum", ...).
  /// `steps` is the search work observed during this slice (exact for a
  /// loop's final slice; a lower bound for slices paused by a nested loop,
  /// where steps are observed only at checkpoint polls).
  struct Slice {
    const char* loop = nullptr;
    uint64_t start_micros = 0;
    uint64_t end_micros = 0;
    uint64_t steps = 0;

    uint64_t duration_micros() const { return end_micros - start_micros; }
  };

  /// Per-loop rollup across every slice (and the dropped ones).
  struct LoopTotal {
    const char* loop = nullptr;
    uint64_t micros = 0;   ///< total time inside the loop
    uint64_t steps = 0;    ///< total steps the loop charged
    uint64_t entries = 0;  ///< times the loop was entered
  };

  /// Anchors the profile's epoch. The service passes the SAME instant it
  /// opens the trace's "evaluate" phase with, so slice offsets and the
  /// evaluate span share a coordinate system. Implicit on first EnterLoop
  /// when never called.
  void Start(Clock::time_point now = Clock::now());

  /// Opens a slice for `loop` (a string literal that must outlive the
  /// profile), pausing the enclosing loop's slice if one is open.
  void EnterLoop(const char* loop, Clock::time_point now = Clock::now());

  /// Updates the running loop's observed step count (checkpoint polls).
  void Heartbeat(uint64_t steps);

  /// Closes `loop`'s slice with its final step count and resumes the
  /// enclosing loop (a fresh slice at the same instant). Robust against
  /// mismatched nesting: intervening frames are closed too.
  void ExitLoop(const char* loop, uint64_t steps,
                Clock::time_point now = Clock::now());

  /// Seals the profile (closing any loops still open) and records the
  /// total evaluation time. Idempotent; the first Finish wins.
  void Finish(Clock::time_point now = Clock::now());

  bool finished() const { return finished_; }
  uint64_t total_micros() const { return total_micros_; }
  size_t dropped_slices() const { return dropped_; }
  const std::vector<Slice>& slices() const { return slices_; }
  /// Per-loop rollups, in first-entered order.
  const std::vector<LoopTotal>& totals() const { return totals_; }

  /// "total=1234us ground: 2 slices 900us 8192 steps; ..." — the compact
  /// attribution line embedded in slow-log entries and reports.
  std::string ToString() const;

 private:
  struct Frame {
    const char* loop = nullptr;
    uint64_t slice_start_micros = 0;
    uint64_t steps_observed = 0;       ///< latest heartbeat / exit count
    uint64_t steps_at_slice_open = 0;  ///< observed count when slice opened
  };

  uint64_t MicrosSinceStart(Clock::time_point now) const;
  void CloseTopSlice(uint64_t at);
  LoopTotal& TotalFor(const char* loop);

  Clock::time_point start_{};
  bool started_ = false;
  bool finished_ = false;
  uint64_t total_micros_ = 0;
  size_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<Slice> slices_;
  std::vector<LoopTotal> totals_;
};

/// Budget and cooperative-abort controls for the (inherently exponential)
/// valuation searches. Every enumerated valuation / candidate tuple costs
/// one step; procedures fail with kResourceExhausted when the budget runs
/// out instead of hanging. A deadline or cancellation token makes a running
/// search *anytime*: the long enumeration loops poll both at amortized
/// checkpoints (every `checkpoint_interval` steps) and abort with
/// kDeadlineExceeded / kCancelled — distinct from kResourceExhausted —
/// leaving whatever SearchStats the aborted run accumulated in place.
struct SearchOptions {
  /// The built-in step budget.
  static constexpr uint64_t kDefaultMaxSteps = 50'000'000ULL;
  uint64_t max_steps = kDefaultMaxSteps;
  /// Hard wall-clock bound for the whole search (steady clock; max() = no
  /// deadline). Unlike the scheduler's queued-request shedding, this is
  /// enforced *inside* a running evaluation.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation; an invalid (default) token never aborts.
  CancelToken cancel;
  /// Optional EXTENDABLE deadline, read afresh at every poll: the count of
  /// the steady clock's duration-since-epoch (max = no deadline), stored
  /// where another thread may push it later. The service points this at a
  /// coalesced flight group's shared run deadline, so a waiter that joins
  /// an already-running evaluation can extend (or lift) its deadline the
  /// same way a late joiner re-pins cancellation. The pointee must outlive
  /// the search. Enforced in addition to the fixed `deadline` above.
  const std::atomic<std::chrono::steady_clock::rep>* shared_deadline =
      nullptr;
  /// How many enumeration steps pass between deadline/cancellation polls
  /// (rounded up to a power of two so the hot-loop test is one AND). The
  /// interval bounds worst-case abort latency; 0 disables mid-run polling
  /// entirely (the pre-checkpoint behavior — the step budget still holds).
  uint64_t checkpoint_interval = 4096;
  /// Observation hook invoked from the checkpoint's cold path: once when a
  /// search loop starts (steps == 0) and again at every poll, with the
  /// loop's `what` phrase and the steps charged so far. The service points
  /// this at a sampled trace to turn checkpoint polls into evaluation-phase
  /// progress marks. Must be cheap-ish (it runs every checkpoint_interval
  /// steps) and must outlive the search; nullptr = no observation. Not part
  /// of the request cache key — observers never change answers.
  using SearchProgressFn = std::function<void(const char* what,
                                              uint64_t steps)>;
  const SearchProgressFn* progress = nullptr;
  /// Per-evaluation search attribution sink. When set, every
  /// SearchCheckpoint scopes its loop into the profile (EnterLoop on
  /// construction, Heartbeat at polls, ExitLoop on destruction), yielding
  /// per-loop time/step slices for the whole evaluation. The profile is
  /// single-threaded (same thread as the search) and must outlive every
  /// checkpoint built from these options; nullptr = no attribution. Like
  /// `progress`, not part of the request cache key.
  SearchProfile* profile = nullptr;
};

/// Amortized cooperative checkpoint threaded through every long enumeration
/// loop. Each loop constructs one checkpoint from its SearchOptions and
/// calls Tick() once per step: the hot path is a counter increment, the
/// budget compare, and one AND; the deadline clock read and the token's
/// atomic load run only every checkpoint_interval steps. Tick() returns the
/// abort reason — kResourceExhausted, kDeadlineExceeded, or kCancelled —
/// tagged with the loop's `what` phrase, or OK to keep searching.
class SearchCheckpoint {
 public:
  /// `what` names the enclosing search in abort messages; `loop` is the
  /// short stable tag ("ground", "mod-enum", ...) used for profile slices
  /// and progress callbacks, defaulting to `what`. Both must outlive the
  /// checkpoint (string literals in practice). Construction enters the
  /// loop in the options' SearchProfile (if any); destruction exits it —
  /// the checkpoint IS the loop's profiling scope, so it is not copyable.
  SearchCheckpoint(const SearchOptions& options, const char* what,
                   const char* loop = nullptr);
  ~SearchCheckpoint();
  SearchCheckpoint(const SearchCheckpoint&) = delete;
  SearchCheckpoint& operator=(const SearchCheckpoint&) = delete;

  /// Charges one enumeration step.
  Status Tick() {
    ++steps_;
    if (steps_ > max_steps_) return Exhausted();
    if (poll_ && (steps_ & mask_) == 0) return Poll();
    return Status::OK();
  }

  /// Steps charged so far.
  uint64_t steps() const { return steps_; }

 private:
  Status Exhausted() const;
  Status Poll() const;  ///< the cold path: clock read + token load

  uint64_t steps_ = 0;
  uint64_t max_steps_;
  uint64_t mask_;
  bool poll_;
  std::chrono::steady_clock::time_point deadline_;
  const std::atomic<std::chrono::steady_clock::rep>* shared_deadline_;
  CancelToken cancel_;
  const SearchOptions::SearchProgressFn* progress_;
  SearchProfile* profile_;
  const char* what_;
  const char* loop_;
};

/// Counters reported by the deciders; benchmarks use them to show the
/// complexity-class shapes of Table I.
struct SearchStats {
  /// Bindings enumerated: one per binding of a c-table row's variables in
  /// the Mod walk (a dropped row's included), plus the tableau valuations,
  /// which a ground check enumerates at most once per request.
  uint64_t valuations = 0;
  uint64_t worlds = 0;  ///< distinct worlds of Mod(T, Dm, V) returned
  /// Candidate extensions examined: an admissible tableau valuation whose
  /// new answer is delta-checked against an instance, a single-tuple
  /// candidate of the weak model or extensibility, a bounded-search node.
  uint64_t extensions = 0;
  uint64_t cc_checks = 0;    ///< CC satisfaction tests, full or delta
  uint64_t query_evals = 0;  ///< full query evaluations

  /// Field-wise accumulation, for aggregating per-request stats.
  SearchStats& Merge(const SearchStats& other);
  SearchStats& operator+=(const SearchStats& other) { return Merge(other); }

  /// Total units of search work recorded — the "wasted steps" measure the
  /// service reports for aborted evaluations.
  uint64_t TotalSteps() const {
    return valuations + worlds + extensions + cc_checks + query_evals;
  }

  std::string ToString() const;
};

/// A counterexample produced by a decider: the world and extension that
/// break completeness, plus the answer tuple that appears or disappears.
struct CompletenessWitness {
  Valuation world_valuation;  ///< µ selecting the offending world
  Instance world;             ///< I = µ(T)
  Instance extension;         ///< I' ∈ Ext(I) with Q(I) ≠ Q(I')
  Tuple answer;               ///< tuple in Q(I') \ Q(I) (or certain-answer gap)
  std::string note;           ///< human-readable explanation

  std::string ToString() const;
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_TYPES_H_
