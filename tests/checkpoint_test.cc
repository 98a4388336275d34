// Cooperative checkpoints inside the core search loops: SearchCheckpoint
// unit behavior (budget, amortized polling, interval rounding, the
// interval-0 escape hatch), per-decider units that a poisoned cancellation
// token or an already-expired deadline aborts every long enumeration within
// one checkpoint interval (with the abort code distinct from
// kResourceExhausted), and mid-run aborts of genuinely slow searches —
// cancellation from another thread and a deadline expiring while the
// decider runs — with partial SearchStats surviving the abort.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "core/bounded.h"
#include "core/certain.h"
#include "core/consistency.h"
#include "core/ground.h"
#include "core/minp.h"
#include "core/prepared_setting.h"
#include "core/rcdp.h"
#include "core/rcqp.h"
#include "sched/cancel.h"
#include "service/decision.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::AuditFixture;
using testing::MakeAuditFixture;
using testing::MakeSlowFixture;
using testing::S;
using testing::SlowFixture;

/// A token that was cancelled before the search even starts; the owning
/// source lives for the whole test binary.
CancelToken PoisonedToken() {
  static CancelSource* source = [] {
    auto* s = new CancelSource();
    s->Cancel();
    return s;
  }();
  return source->token();
}

SearchOptions WithPoisonedCancel(uint64_t interval = 1) {
  SearchOptions options;
  options.cancel = PoisonedToken();
  options.checkpoint_interval = interval;
  return options;
}

SearchOptions WithExpiredDeadline(uint64_t interval = 1) {
  SearchOptions options;
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  options.checkpoint_interval = interval;
  return options;
}

// ---------------------------------------------------------------------------
// SearchCheckpoint unit behavior
// ---------------------------------------------------------------------------

TEST(SearchCheckpointTest, BudgetExhaustionKeepsItsCodeAndMessage) {
  SearchOptions options;
  options.max_steps = 3;
  SearchCheckpoint checkpoint(options, "unit search");
  EXPECT_OK(checkpoint.Tick());
  EXPECT_OK(checkpoint.Tick());
  EXPECT_OK(checkpoint.Tick());
  Status st = checkpoint.Tick();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("unit search"), std::string::npos);
  EXPECT_NE(st.message().find("step budget"), std::string::npos);
  EXPECT_EQ(checkpoint.steps(), 4u);
}

TEST(SearchCheckpointTest, PoisonedTokenAbortsAtTheFirstPoll) {
  SearchCheckpoint checkpoint(WithPoisonedCancel(/*interval=*/1), "unit");
  Status st = checkpoint.Tick();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST(SearchCheckpointTest, PollsAreAmortizedToTheInterval) {
  // Interval 4: ticks 1..3 must not observe the poisoned token; tick 4 must.
  SearchCheckpoint checkpoint(WithPoisonedCancel(/*interval=*/4), "unit");
  EXPECT_OK(checkpoint.Tick());
  EXPECT_OK(checkpoint.Tick());
  EXPECT_OK(checkpoint.Tick());
  EXPECT_EQ(checkpoint.Tick().code(), StatusCode::kCancelled);
}

TEST(SearchCheckpointTest, IntervalRoundsUpToAPowerOfTwo) {
  // Interval 3 rounds to 4: the first poll happens at tick 4, not 3.
  SearchCheckpoint checkpoint(WithPoisonedCancel(/*interval=*/3), "unit");
  EXPECT_OK(checkpoint.Tick());
  EXPECT_OK(checkpoint.Tick());
  EXPECT_OK(checkpoint.Tick());
  EXPECT_EQ(checkpoint.Tick().code(), StatusCode::kCancelled);
}

TEST(SearchCheckpointTest, ExpiredDeadlineAbortsWithDeadlineExceeded) {
  SearchCheckpoint checkpoint(WithExpiredDeadline(/*interval=*/1), "unit");
  EXPECT_EQ(checkpoint.Tick().code(), StatusCode::kDeadlineExceeded);
}

TEST(SearchCheckpointTest, IntervalZeroDisablesPollingButKeepsBudget) {
  SearchOptions options = WithPoisonedCancel(/*interval=*/0);
  options.max_steps = 8;
  SearchCheckpoint checkpoint(options, "unit");
  for (int i = 0; i < 8; ++i) EXPECT_OK(checkpoint.Tick());
  EXPECT_EQ(checkpoint.Tick().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Per-decider abort units: a poisoned token / expired deadline stops every
// long enumeration within one (tiny) checkpoint interval.
// ---------------------------------------------------------------------------

/// The kinds whose evaluation on the slow fixture reaches an enumeration
/// loop. kRcqpWeak is O(1) (no loop to abort) and kRcqpStrong takes the
/// IND PTIME path with no unbounded disjunct here; both are covered by the
/// dedicated RCQP tests below.
const std::vector<ProblemKind>& AbortableKinds() {
  static const std::vector<ProblemKind> kinds = {
      ProblemKind::kRcdpStrong, ProblemKind::kRcdpWeak,
      ProblemKind::kRcdpViable, ProblemKind::kMinpStrong,
      ProblemKind::kMinpViable, ProblemKind::kMinpWeak,
  };
  return kinds;
}

TEST(DeciderCheckpointTest, EveryKindAbortsOnAPoisonedToken) {
  SlowFixture fx = MakeSlowFixture(/*rows=*/8);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  for (ProblemKind kind : AbortableKinds()) {
    DecisionRequest request = fx.Request(kind);
    request.options = WithPoisonedCancel();
    Decision decision = EvaluateRequest(request, prepared);
    EXPECT_EQ(decision.status.code(), StatusCode::kCancelled)
        << ProblemKindName(kind) << ": " << decision.status.ToString();
  }
}

TEST(DeciderCheckpointTest, EveryKindAbortsOnAnExpiredDeadline) {
  SlowFixture fx = MakeSlowFixture(/*rows=*/8);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  for (ProblemKind kind : AbortableKinds()) {
    DecisionRequest request = fx.Request(kind);
    request.options = WithExpiredDeadline();
    Decision decision = EvaluateRequest(request, prepared);
    EXPECT_EQ(decision.status.code(), StatusCode::kDeadlineExceeded)
        << ProblemKindName(kind) << ": " << decision.status.ToString();
  }
}

TEST(DeciderCheckpointTest, RcqpBoundedSearchAborts) {
  AuditFixture fx = MakeAuditFixture();
  // A non-IND CC (a builtin in the body) forces the NEXPTIME-bounded DFS
  // instead of the Corollary 7.2 PTIME path.
  ConjunctiveQuery edi_visitors(
      {CTerm(VarId{0})}, {RelAtom{"Visit", {VarId{0}, VarId{1}}}},
      {CondAtom{CTerm(VarId{1}), /*neq=*/false, CTerm(S("EDI"))}});
  fx.setting.ccs.emplace_back("edi_known", std::move(edi_visitors),
                              "Patientm", std::vector<int>{0});
  ASSERT_FALSE(AllInds(fx.setting.ccs));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  Result<RcqpSearchResult> cancelled = RcqpStrongBounded(
      fx.by_patient, prepared, /*max_tuples=*/2, WithPoisonedCancel());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  Result<RcqpSearchResult> expired = RcqpStrongBounded(
      fx.by_patient, prepared, /*max_tuples=*/2, WithExpiredDeadline());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeciderCheckpointTest, RcqpIndValuationSearchAborts) {
  // An extra relation no IND covers gives the PTIME path an unbounded
  // disjunct, whose canonical-valuation search must checkpoint.
  AuditFixture fx = MakeAuditFixture();
  fx.setting.schema.AddRelation(
      RelationSchema("Lab", {Attribute{"code", Domain::Infinite()}}));
  ASSERT_TRUE(AllInds(fx.setting.ccs));
  Query lab_codes = Query::Cq(
      ConjunctiveQuery({CTerm(VarId{0})}, {RelAtom{"Lab", {VarId{0}}}}));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  Result<bool> cancelled =
      RcqpStrongInd(lab_codes, prepared, WithPoisonedCancel());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

TEST(DeciderCheckpointTest, GroundCertainAndConsistencySearchesAbort) {
  AuditFixture fx = MakeAuditFixture();
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  Instance ground(fx.setting.schema);
  ground.AddTuple("Visit", {S("nhs-0"), S("EDI")});

  Result<bool> ground_abort = RcdpStrongGround(
      fx.by_patient, ground, prepared, WithPoisonedCancel());
  EXPECT_EQ(ground_abort.status().code(), StatusCode::kCancelled);

  Result<bool> extensible =
      IsExtensible(prepared, ground, WithExpiredDeadline());
  EXPECT_EQ(extensible.status().code(), StatusCode::kDeadlineExceeded);

  Result<bool> consistent =
      IsConsistent(prepared, fx.audited, WithPoisonedCancel());
  EXPECT_EQ(consistent.status().code(), StatusCode::kCancelled);

  AdomContext adom = prepared.BuildAdom(fx.audited, &fx.by_patient);
  Result<CertainAnswersResult> certain = CertainAnswers(
      fx.by_patient, fx.audited, prepared, adom, WithExpiredDeadline(),
      nullptr);
  EXPECT_EQ(certain.status().code(), StatusCode::kDeadlineExceeded);

  Result<BoundedSearchResult> bounded = SearchIncompletenessGround(
      fx.by_patient, ground, prepared, /*max_added_tuples=*/2,
      WithPoisonedCancel());
  EXPECT_EQ(bounded.status().code(), StatusCode::kCancelled);
}

TEST(DeciderCheckpointTest, LargeIntervalNeverFiresOnShortSearches) {
  // Amortization is real: with the poll interval far above the fixture's
  // total step count, a poisoned token goes unobserved and the decider
  // still completes — the hot path paid no per-step poll.
  AuditFixture fx = MakeAuditFixture();
  DecisionRequest request;
  request.kind = ProblemKind::kRcdpStrong;
  request.query = fx.by_patient;
  request.cinstance = fx.audited;
  request.options = WithPoisonedCancel(/*interval=*/uint64_t{1} << 40);
  Decision decision =
      EvaluateRequest(request, testing::MustPrepare(fx.setting));
  EXPECT_TRUE(decision.status.ok()) << decision.status.ToString();
}

// ---------------------------------------------------------------------------
// Mid-run aborts of genuinely slow searches
// ---------------------------------------------------------------------------

TEST(MidRunAbortTest, ConcurrentCancelStopsASlowSearchWithPartialStats) {
  // ~98.6M row bindings to exhaust — unfinishable within the budget; the
  // cancel lands while the enumeration runs and must stop it at the next
  // checkpoint, leaving the partial stats in place.
  SlowFixture fx = MakeSlowFixture(/*rows=*/11);
  CancelSource source;
  DecisionRequest request = fx.Request();
  request.options.max_steps = 20'000'000;
  request.options.cancel = source.token();

  SearchStats stats;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  std::future<Result<bool>> running = std::async(std::launch::async, [&] {
    return RcdpStrong(fx.query, fx.audited, prepared, request.options, &stats);
  });
  // Let the search get properly inside the loop, then cancel.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  source.Cancel();
  ASSERT_EQ(running.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "cancellation did not stop the running search";
  Result<bool> result = running.get();
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GT(stats.valuations, 0u) << "no partial stats survived the abort";
  EXPECT_LT(stats.valuations, request.options.max_steps)
      << "the search ran to budget exhaustion instead of aborting";
}

TEST(MidRunAbortTest, DeadlineExpiringMidRunAbortsTheSearch) {
  SlowFixture fx = MakeSlowFixture(/*rows=*/11);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  DecisionRequest request = fx.Request();
  request.options.max_steps = 20'000'000;
  request.options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);

  const auto start = std::chrono::steady_clock::now();
  Decision decision = EvaluateRequest(request, prepared);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(decision.status.code(), StatusCode::kDeadlineExceeded)
      << decision.status.ToString();
  EXPECT_GT(decision.stats.valuations, 0u);
  EXPECT_LT(decision.stats.valuations, request.options.max_steps);
  // The enforced deadline bounds shed latency to roughly the checkpoint
  // interval; anything near the full (budget-bounded) search time means
  // the abort never fired. Generous margin for slow CI machines.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);
}

}  // namespace
}  // namespace relcomp
