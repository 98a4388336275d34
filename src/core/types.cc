#include "core/types.h"

#include <algorithm>
#include <cstring>

namespace relcomp {

namespace {

std::string Signature(const RelationSchema& rel) {
  return rel.name() + "/" + std::to_string(rel.arity());
}

// Smallest (power of two) - 1 covering `interval`, so `steps & mask == 0`
// fires at most once per requested interval.
uint64_t PollMask(uint64_t interval) {
  uint64_t size = 1;
  while (size < interval && size < (uint64_t{1} << 62)) size <<= 1;
  return size - 1;
}

}  // namespace

Status CheckSchemaMatches(const DatabaseSchema& have,
                          const DatabaseSchema& want, const char* have_what,
                          const char* want_what) {
  const std::vector<RelationSchema>& got = have.relations();
  const std::vector<RelationSchema>& expected = want.relations();
  const size_t common = std::min(got.size(), expected.size());
  for (size_t i = 0; i < common; ++i) {
    const RelationSchema& a = got[i];
    const RelationSchema& b = expected[i];
    std::string why;
    if (a.name() == b.name() && a.arity() == b.arity()) {
      size_t col = 0;
      while (col < a.arity() &&
             a.attribute(col).domain == b.attribute(col).domain) {
        ++col;
      }
      if (col == a.arity()) continue;
      why = ": attribute " + b.attribute(col).name + " has another domain";
    }
    return Status::InvalidArgument(std::string(have_what) + " relation " +
                                   Signature(a) + " does not match " +
                                   want_what + " relation " + Signature(b) +
                                   why);
  }
  if (got.size() < expected.size()) {
    return Status::InvalidArgument(std::string(have_what) + " lacks " +
                                   want_what + " relation " +
                                   Signature(expected[common]));
  }
  if (got.size() > expected.size()) {
    return Status::InvalidArgument(std::string(have_what) + " relation " +
                                   Signature(got[common]) + " is not in the " +
                                   want_what);
  }
  return Status::OK();
}

Status CheckQuery(const Query& q, const DatabaseSchema& schema,
                  TableICell cell) {
  RELCOMP_RETURN_IF_ERROR(q.Validate(schema));
  if (cell == TableICell::kBoundedSearch) return Status::OK();
  struct Entry {
    const char* problem;
    const char* model;
    const char* theorem;
    bool decides_fp;  // every cell is undecidable for FO
  };
  // Indexed by TableICell.
  static constexpr Entry kTableI[] = {
      {"RCDP", "strong", "Theorem 4.1", false},
      {"RCDP", "weak", "Theorem 5.1", true},
      {"RCDP", "viable", "Theorem 6.1", false},
      {"RCQP", "strong", "Theorem 4.5", false},
      {"RCQP", "weak", "Theorem 5.4", true},
      {"MINP", "strong", "Theorem 4.8", false},
      {"MINP", "weak", "Theorem 5.6", true},
      {"MINP", "viable", "Corollary 6.3", false},
  };
  const Entry& entry = kTableI[static_cast<size_t>(cell)];
  const QueryLanguage lang = q.language();
  if (lang == QueryLanguage::kFO ||
      (lang == QueryLanguage::kFP && !entry.decides_fp)) {
    return Status::Undecidable(std::string(entry.problem) + " in the " +
                               entry.model + " model is undecidable for " +
                               QueryLanguageName(lang) + " (" + entry.theorem +
                               ")");
  }
  return Status::OK();
}

Status PartiallyClosedSetting::Validate() const {
  // The CC checks read each master from Dm by the master schema's layout.
  RELCOMP_RETURN_IF_ERROR(CheckSchemaMatches(dm.schema(), master_schema,
                                             "master data", "master schema"));
  for (const ContainmentConstraint& cc : ccs) {
    RELCOMP_RETURN_IF_ERROR(cc.Validate(schema, master_schema));
  }
  return Status::OK();
}

void SearchProfile::Start(Clock::time_point now) {
  if (started_) return;
  started_ = true;
  start_ = now;
}

uint64_t SearchProfile::MicrosSinceStart(Clock::time_point now) const {
  if (now <= start_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - start_)
          .count());
}

SearchProfile::LoopTotal& SearchProfile::TotalFor(const char* loop) {
  for (LoopTotal& total : totals_) {
    // Loop tags are string literals, but compare contents too so the same
    // tag from different translation units still aggregates.
    if (total.loop == loop ||
        std::strcmp(total.loop, loop) == 0) {
      return total;
    }
  }
  totals_.push_back(LoopTotal{loop, 0, 0, 0});
  return totals_.back();
}

void SearchProfile::CloseTopSlice(uint64_t at) {
  Frame& frame = stack_.back();
  const uint64_t steps =
      frame.steps_observed > frame.steps_at_slice_open
          ? frame.steps_observed - frame.steps_at_slice_open
          : 0;
  LoopTotal& total = TotalFor(frame.loop);
  total.micros += at - frame.slice_start_micros;
  total.steps += steps;
  if (slices_.size() < kMaxSlices) {
    slices_.push_back(Slice{frame.loop, frame.slice_start_micros, at, steps});
  } else {
    ++dropped_;
  }
}

void SearchProfile::EnterLoop(const char* loop, Clock::time_point now) {
  if (finished_) return;
  Start(now);
  const uint64_t at = MicrosSinceStart(now);
  // Pause the enclosing loop: close its open slice; ExitLoop (or Finish)
  // will reopen a fresh one when this nested loop unwinds.
  if (!stack_.empty()) CloseTopSlice(at);
  TotalFor(loop).entries += 1;
  stack_.push_back(Frame{loop, at, 0, 0});
}

void SearchProfile::Heartbeat(uint64_t steps) {
  if (finished_ || stack_.empty()) return;
  stack_.back().steps_observed = steps;
}

void SearchProfile::ExitLoop(const char* loop, uint64_t steps,
                             Clock::time_point now) {
  if (finished_ || stack_.empty()) return;
  const uint64_t at = MicrosSinceStart(now);
  stack_.back().steps_observed = steps;
  // Defensive unwinding: if an intervening frame never exited (a loop that
  // returned without destroying its checkpoint cannot happen with the RAII,
  // but guard anyway), close everything down to — and including — `loop`.
  // Each pop resumes the newly exposed parent at the unwind instant —
  // NOT from its pre-pause slice start, which already closed when the
  // child entered; reusing it would double-charge the child's whole span
  // to the parent. The step baseline restarts from the parent's latest
  // observed count so paused and resumed slices never double-charge steps.
  while (!stack_.empty()) {
    const bool match = stack_.back().loop == loop ||
                       std::strcmp(stack_.back().loop, loop) == 0;
    CloseTopSlice(at);
    stack_.pop_back();
    if (!stack_.empty()) {
      Frame& parent = stack_.back();
      parent.slice_start_micros = at;
      parent.steps_at_slice_open = parent.steps_observed;
    }
    if (match) break;
  }
}

void SearchProfile::Finish(Clock::time_point now) {
  if (finished_) return;
  Start(now);
  const uint64_t at = MicrosSinceStart(now);
  // Unwind any loops still open (an evaluation cut short mid-search).
  // Only the top frame has an open slice — every lower frame was paused
  // when its child entered — so each exposed parent resumes at `at` and
  // closes immediately as a zero-length slice, keeping the slice set
  // non-overlapping instead of re-charging the children's spans.
  while (!stack_.empty()) {
    CloseTopSlice(at);
    stack_.pop_back();
    if (!stack_.empty()) {
      Frame& parent = stack_.back();
      parent.slice_start_micros = at;
      parent.steps_at_slice_open = parent.steps_observed;
    }
  }
  total_micros_ = at;
  finished_ = true;
}

std::string SearchProfile::ToString() const {
  std::string out = "total=" + std::to_string(total_micros_) + "us";
  for (const LoopTotal& total : totals_) {
    out += " ";
    out += total.loop;
    out += ": " + std::to_string(total.entries) +
           (total.entries == 1 ? " entry " : " entries ") +
           std::to_string(total.micros) + "us " +
           std::to_string(total.steps) + " steps;";
  }
  if (dropped_ > 0) {
    out += " (" + std::to_string(dropped_) + " slices dropped)";
  }
  return out;
}

SearchCheckpoint::SearchCheckpoint(const SearchOptions& options,
                                   const char* what, const char* loop)
    : max_steps_(options.max_steps),
      mask_(PollMask(options.checkpoint_interval)),
      poll_(options.checkpoint_interval > 0 &&
            (options.cancel.valid() || options.shared_deadline != nullptr ||
             options.progress != nullptr ||
             options.deadline !=
                 std::chrono::steady_clock::time_point::max())),
      deadline_(options.deadline),
      shared_deadline_(options.shared_deadline),
      cancel_(options.cancel),
      progress_(options.progress),
      profile_(options.profile),
      what_(what),
      loop_(loop != nullptr ? loop : what) {
  // The checkpoint IS the loop's profiling scope: slices open here and
  // close in the destructor, so attribution stays exact on every exit
  // path (normal return, budget exhaustion, cancellation, deadline).
  if (profile_ != nullptr) profile_->EnterLoop(loop_);
  // Announce the loop's start so an observer sees which search phase is
  // running even before the first poll interval elapses.
  if (progress_ != nullptr && *progress_) (*progress_)(loop_, 0);
}

SearchCheckpoint::~SearchCheckpoint() {
  if (profile_ != nullptr) profile_->ExitLoop(loop_, steps_);
}

Status SearchCheckpoint::Exhausted() const {
  return Status::ResourceExhausted(std::string(what_) +
                                   " exceeded the step budget");
}

Status SearchCheckpoint::Poll() const {
  if (profile_ != nullptr) profile_->Heartbeat(steps_);
  if (progress_ != nullptr && *progress_) (*progress_)(loop_, steps_);
  if (cancel_.cancelled()) {
    return Status::Cancelled(std::string(what_) +
                             " aborted at a checkpoint: cancelled");
  }
  const auto now = std::chrono::steady_clock::now();
  // The shared deadline is re-read every poll: waiters joining a coalesced
  // evaluation mid-run may have extended (or lifted) it since the last one.
  const bool expired =
      now > deadline_ ||
      (shared_deadline_ != nullptr &&
       now.time_since_epoch().count() >
           shared_deadline_->load(std::memory_order_relaxed));
  if (expired) {
    return Status::DeadlineExceeded(std::string(what_) +
                                    " aborted at a checkpoint: deadline "
                                    "exceeded mid-evaluation");
  }
  return Status::OK();
}

SearchStats& SearchStats::Merge(const SearchStats& other) {
  valuations += other.valuations;
  worlds += other.worlds;
  extensions += other.extensions;
  cc_checks += other.cc_checks;
  query_evals += other.query_evals;
  return *this;
}

std::string SearchStats::ToString() const {
  return "valuations=" + std::to_string(valuations) +
         " worlds=" + std::to_string(worlds) +
         " extensions=" + std::to_string(extensions) +
         " cc_checks=" + std::to_string(cc_checks) +
         " query_evals=" + std::to_string(query_evals);
}

std::string CompletenessWitness::ToString() const {
  std::string out = note;
  if (!world.relations().empty()) {
    out += "\nworld I = " + world.ToString();
  }
  if (!extension.relations().empty()) {
    out += "\nextension I' = " + extension.ToString();
  }
  if (!answer.empty()) {
    out += "\nanswer tuple: " + TupleToString(answer);
  }
  return out;
}

}  // namespace relcomp
