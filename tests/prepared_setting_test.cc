// PreparedSetting: cached artifacts must be indistinguishable from per-call
// recomputation — same Adom, same CC verdicts, same decider answers — and
// fingerprints must be stable and discriminating.
#include <gtest/gtest.h>

#include "core/minp.h"
#include "core/rcdp.h"
#include "core/rcqp.h"
#include "core/fingerprint.h"
#include "core/prepared_setting.h"
#include "reductions/examples_fig1.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::S;

TEST(PreparedSettingTest, LargeMasterCountersArePinned) {
  // A 24,576-row master: the deciders build each Adom over the shared seed
  // and materialize it only to enumerate it. The counts pin the size and
  // the order of the materialized domain. Symbols order by interning order,
  // and the weak-model early exit depends on that order, so this test comes
  // first in its binary: no earlier test has interned a fresh ("@new")
  // name before the master's constants.
  struct Counts {
    uint64_t valuations, worlds, extensions, cc_checks, query_evals;
  };
  auto expect_counts = [](const SearchStats& got, const Counts& want,
                          const std::string& what) {
    EXPECT_EQ(got.valuations, want.valuations) << what;
    EXPECT_EQ(got.worlds, want.worlds) << what;
    EXPECT_EQ(got.extensions, want.extensions) << what;
    EXPECT_EQ(got.cc_checks, want.cc_checks) << what;
    EXPECT_EQ(got.query_evals, want.query_evals) << what;
  };
  const testing::SlowFixture slow = testing::MakeSlowFixture(24576, 1);
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(slow.setting));
  {
    // One variable over all of Adom: one valuation per Adom value, and the
    // ghost row empties Mod(T, Dm, V).
    SearchStats stats;
    ASSERT_OK_AND_ASSIGN(
        complete, RcdpStrong(slow.query, slow.audited, prepared, {}, &stats));
    EXPECT_FALSE(complete);
    expect_counts(stats, {24606, 0, 0, 24606, 0}, "slow fixture");
  }

  // The audit shape: a ground instance and q(c) :- Visit(P, c).
  Instance db(slow.setting.schema);
  db.AddTuple("Visit", {S("nhs-0"), S("EDI")});
  db.AddTuple("Visit", {S("nhs-0"), S("LON")});
  db.AddTuple("Visit", {S("nhs-1"), S("LON")});
  const CInstance audited = CInstance::FromInstance(db);
  enum class Kind { kRcdpStrong, kMinpStrong, kRcdpWeak, kRcqpStrong };
  struct Case {
    const char* patient;
    Kind kind;
    bool answer;
    Counts counts;
  };
  const Case cases[] = {
      {"nhs-0", Kind::kRcdpStrong, true, {3, 1, 0, 1, 1}},
      {"nhs-0", Kind::kMinpStrong, false, {8, 1, 2, 3, 4}},
      {"nhs-0", Kind::kRcdpWeak, true, {2, 2, 4, 5, 2}},
      {"nhs-1", Kind::kRcdpStrong, false, {2, 1, 1, 2, 1}},
      {"outsider", Kind::kRcdpStrong, true, {3, 1, 2, 3, 1}},
      {"outsider", Kind::kMinpStrong, false, {5, 1, 4, 5, 2}},
      {"nhs-0", Kind::kRcqpStrong, true, {0, 0, 0, 0, 0}},
      {"nhs-1", Kind::kRcqpStrong, true, {0, 0, 0, 0, 0}},
      {"outsider", Kind::kRcqpStrong, true, {0, 0, 0, 0, 0}},
  };
  for (const Case& c : cases) {
    const Query q = Query::Cq(ConjunctiveQuery(
        {CTerm(VarId{0})},
        {RelAtom{"Visit", {CTerm(S(c.patient)), CTerm(VarId{0})}}}));
    SearchStats stats;
    Result<bool> answer = false;
    switch (c.kind) {
      case Kind::kRcdpStrong:
        answer = RcdpStrong(q, audited, prepared, {}, &stats);
        break;
      case Kind::kMinpStrong:
        answer = MinpStrong(q, audited, prepared, {}, &stats);
        break;
      case Kind::kRcdpWeak:
        answer = RcdpWeak(q, audited, prepared, {}, &stats);
        break;
      case Kind::kRcqpStrong:
        answer = RcqpStrongInd(q, prepared, {}, &stats);
        break;
    }
    const std::string what = std::string(c.patient) + " kind " +
                             std::to_string(static_cast<int>(c.kind));
    ASSERT_TRUE(answer.ok()) << what << ": " << answer.status().ToString();
    EXPECT_EQ(*answer, c.answer) << what;
    expect_counts(stats, c.counts, what);
  }
}

TEST(PreparedSettingTest, PrepareValidatesTheSetting) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  EXPECT_EQ(prepared.ccs().size(), fx.setting.ccs.size());

  // A CC whose projection width disagrees with its head arity must fail.
  PartiallyClosedSetting broken = fx.setting;
  ContainmentConstraint cc = broken.ccs.front();
  broken.ccs.push_back(ContainmentConstraint(
      "bad", cc.q(), cc.master_rel(),
      std::vector<int>(cc.master_cols().size() + 1, 0)));
  EXPECT_FALSE(PreparedSetting::Prepare(broken).ok());
}

TEST(PreparedSettingTest, CachedAdomSeedMatchesTheSetting) {
  // Every Adom built over a prepared setting shares its one cached seed;
  // property_test's AdomOracle checks the Adom against its definition.
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  const AdomSeed fresh_seed = AdomContext::SeedFor(fx.setting);
  EXPECT_EQ(prepared.adom_seed()->base, fresh_seed.base);
  EXPECT_EQ(prepared.adom_seed()->fresh, fresh_seed.fresh);
  const long owners = prepared.adom_seed().use_count();
  for (const Query* q : {&fx.q1, &fx.q2, &fx.q4}) {
    AdomContext direct = AdomContext::Build(fx.setting, fx.ctable, q);
    AdomContext via_prepared = prepared.BuildAdom(fx.ctable, q);
    EXPECT_EQ(prepared.adom_seed().use_count(), owners + 1);  // shared
    EXPECT_EQ(direct.values(), via_prepared.values());
    EXPECT_EQ(direct.base(), via_prepared.base());
    EXPECT_EQ(direct.fresh(), via_prepared.fresh());
  }
}

TEST(PreparedSettingTest, CachedProjectionsMatchDirectCcChecks) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));

  // The ground rows satisfy V; a visit by an unknown patient violates the
  // name CC only through the master projection — both paths must agree.
  Instance bad = fx.ground;
  bad.AddTuple("MVisit", {S("000-00-000"), S("Nobody"), S("EDI"),
                          Value::Int(2000), S("M"), S("15/03/2015"),
                          S("Flu"), S("01")});
  for (const Instance* instance : {&fx.ground, &bad}) {
    ASSERT_OK_AND_ASSIGN(
        direct, SatisfiesCCs(*instance, fx.setting.dm, fx.setting.ccs));
    ASSERT_OK_AND_ASSIGN(cached, prepared.SatisfiesCCs(*instance));
    EXPECT_EQ(direct, cached);
  }
}

TEST(PreparedSettingTest, DecidersAgreeBetweenPreparedAndLegacyEntryPoints) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  for (const Query* q : {&fx.q1, &fx.q2, &fx.q4}) {
    ASSERT_OK_AND_ASSIGN(legacy_strong, RcdpStrong(*q, fx.ctable, fx.setting));
    ASSERT_OK_AND_ASSIGN(prep_strong, RcdpStrong(*q, fx.ctable, prepared));
    EXPECT_EQ(legacy_strong, prep_strong) << (*q).ToString();

    ASSERT_OK_AND_ASSIGN(legacy_viable, RcdpViable(*q, fx.ctable, fx.setting));
    ASSERT_OK_AND_ASSIGN(prep_viable, RcdpViable(*q, fx.ctable, prepared));
    EXPECT_EQ(legacy_viable, prep_viable) << (*q).ToString();

    ASSERT_OK_AND_ASSIGN(legacy_minp,
                         MinpStrongGround(*q, fx.ground, fx.setting));
    ASSERT_OK_AND_ASSIGN(prep_minp, MinpStrongGround(*q, fx.ground, prepared));
    EXPECT_EQ(legacy_minp, prep_minp) << (*q).ToString();
  }
  ASSERT_OK_AND_ASSIGN(legacy_weak, RcdpWeak(fx.q4, fx.ctable, fx.setting));
  ASSERT_OK_AND_ASSIGN(prep_weak, RcdpWeak(fx.q4, fx.ctable, prepared));
  EXPECT_EQ(legacy_weak, prep_weak);
}

TEST(PreparedSettingTest, SearchStatsIdenticalAcrossEntryPoints) {
  // The prepared path must do the same logical work, not just reach the
  // same answer: every counter agrees with the legacy path.
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  SearchStats legacy_stats, prep_stats;
  ASSERT_OK_AND_ASSIGN(legacy,
                       RcdpStrong(fx.q1, fx.ctable, fx.setting, {},
                                  &legacy_stats));
  ASSERT_OK_AND_ASSIGN(prep,
                       RcdpStrong(fx.q1, fx.ctable, prepared, {}, &prep_stats));
  EXPECT_EQ(legacy, prep);
  EXPECT_EQ(legacy_stats.valuations, prep_stats.valuations);
  EXPECT_EQ(legacy_stats.worlds, prep_stats.worlds);
  EXPECT_EQ(legacy_stats.extensions, prep_stats.extensions);
  EXPECT_EQ(legacy_stats.cc_checks, prep_stats.cc_checks);
  EXPECT_EQ(legacy_stats.query_evals, prep_stats.query_evals);
}

TEST(PreparedSettingTest, StrongSearchCountersArePinned) {
  // Counts measured with the reference CC checks (one Eval per CC): the
  // compiled and semi-naive checks must reach the verdict by the same work.
  struct Case {
    const char* name;
    PatientsFixture fx;
    uint64_t valuations, worlds, extensions, cc_checks, query_evals;
  };
  // The Fig. 1 c-table plus one closed London visit: a strong-audit call.
  PatientsFixture audit = MakePatientsFixture();
  audit.ctable.at("MVisit").AddRow(
      {S("7c0ffee01"), S("Nc0ffee01"), S("LON"), Value::Int(2001), S("F"),
       S("16/03/2015"), S("Diabetes"), S("02")});
  const Case cases[] = {
      {"audit", std::move(audit), 25812, 21, 22680, 25056, 21},
      {"scaled(2, 2)", MakeScaledPatientsFixture(2, 2), 282852, 189, 251748,
       276048, 189},
  };
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(c.fx.setting));
    SearchStats stats;
    ASSERT_OK_AND_ASSIGN(
        complete, RcdpStrong(c.fx.q1, c.fx.ctable, prepared, {}, &stats));
    EXPECT_TRUE(complete) << c.name;
    EXPECT_EQ(stats.valuations, c.valuations) << c.name;
    EXPECT_EQ(stats.worlds, c.worlds) << c.name;
    EXPECT_EQ(stats.extensions, c.extensions) << c.name;
    EXPECT_EQ(stats.cc_checks, c.cc_checks) << c.name;
    EXPECT_EQ(stats.query_evals, c.query_evals) << c.name;
  }
}

TEST(PreparedSettingTest, FingerprintsAreStableAndDiscriminating) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(a, PreparedSetting::Prepare(fx.setting));
  ASSERT_OK_AND_ASSIGN(b, PreparedSetting::Prepare(fx.setting));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), FingerprintSetting(fx.setting));

  // The acquisition setting differs only in master data — and in print.
  ASSERT_OK_AND_ASSIGN(c, PreparedSetting::Prepare(fx.acquisition));
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  EXPECT_NE(FingerprintQuery(fx.q1), FingerprintQuery(fx.q2));
  EXPECT_EQ(FingerprintQuery(fx.q1), FingerprintQuery(fx.q1));
  EXPECT_NE(FingerprintCInstance(fx.ctable),
            FingerprintCInstance(CInstance(fx.setting.schema)));
}

TEST(PreparedSettingTest, AllIndsClassificationIsCached) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(fig1, PreparedSetting::Prepare(fx.setting));
  EXPECT_EQ(fig1.all_inds(), AllInds(fx.setting.ccs));

  // A pure-IND setting flips the flag and unlocks the Cor 7.2 fast path.
  PartiallyClosedSetting ind;
  ind.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs", Domain::Infinite()}}));
  ind.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  ind.dm = Instance(ind.master_schema);
  ind.dm.AddTuple("Patientm", {S("p0")});
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}}}});
  ind.ccs.emplace_back("ind", std::move(proj), "Patientm",
                       std::vector<int>{0});
  ASSERT_OK_AND_ASSIGN(prepared_ind, PreparedSetting::Prepare(ind));
  EXPECT_TRUE(prepared_ind.all_inds());

  Query q = Query::Cq(ConjunctiveQuery({CTerm(VarId{0})},
                                       {RelAtom{"Visit", {VarId{0}}}}));
  ASSERT_OK_AND_ASSIGN(legacy, RcqpStrongInd(q, ind));
  ASSERT_OK_AND_ASSIGN(prep, RcqpStrongInd(q, prepared_ind));
  EXPECT_EQ(legacy, prep);
}

}  // namespace
}  // namespace relcomp
