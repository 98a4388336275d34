// PreparedSetting: cached artifacts must be indistinguishable from per-call
// recomputation — same Adom, same CC verdicts, same decider answers — and
// fingerprints must be stable and discriminating.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/bounded.h"
#include "core/consistency.h"
#include "core/minp.h"
#include "core/rcdp.h"
#include "core/rcqp.h"
#include "core/fingerprint.h"
#include "core/prepared_setting.h"
#include "reductions/examples_fig1.h"
#include "service/service.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

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

  // A setting enters the library through Prepare, directly or through the
  // service's RegisterSetting; both refuse each input below with the same
  // status, so no decider ever sees it.
  struct Broken {
    std::string what;
    PartiallyClosedSetting setting;
    StatusCode code;
    std::string message;
  };
  std::vector<Broken> broken;

  // A CC whose projection width disagrees with its head arity.
  {
    PartiallyClosedSetting setting = fx.setting;
    const ContainmentConstraint cc = setting.ccs.front();
    const size_t width = cc.master_cols().size();
    setting.ccs.push_back(ContainmentConstraint(
        "bad", cc.q(), cc.master_rel(), std::vector<int>(width + 1, 0)));
    broken.push_back({"projection width", std::move(setting),
                      StatusCode::kInvalidArgument,
                      "CC 'bad': head arity " + std::to_string(width) +
                          " does not match projection width " +
                          std::to_string(width + 1)});
  }

  // P(a), bounded by the master M1(a); the master schema also has M2(a, b).
  const Domain inf = Domain::Infinite();
  PartiallyClosedSetting base;
  base.schema.AddRelation(RelationSchema("P", {Attribute{"a", inf}}));
  base.master_schema.AddRelation(RelationSchema("M1", {Attribute{"a", inf}}));
  base.master_schema.AddRelation(
      RelationSchema("M2", {Attribute{"a", inf}, Attribute{"b", inf}}));
  base.dm = Instance(base.master_schema);
  base.dm.AddTuple("M1", {I(0)});
  base.dm.AddTuple("M2", {I(0), I(1)});
  base.ccs.emplace_back(
      "p_in_m1", ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"P", {V(0)}}}),
      "M1", std::vector<int>{0});
  ASSERT_TRUE(PreparedSetting::Prepare(base).ok());

  // Dm whose relations differ from the master schema's: a narrower M2, and
  // M2 under another name. A check of the CC below on the narrow Dm would
  // read past that relation's attributes.
  for (const char* name : {"M2", "Other"}) {
    const bool narrow = std::string(name) == "M2";
    DatabaseSchema dm_schema;
    dm_schema.AddRelation(RelationSchema("M1", {Attribute{"a", inf}}));
    dm_schema.AddRelation(
        narrow ? RelationSchema(name, {Attribute{"a", inf}})
               : RelationSchema(name, {Attribute{"a", inf},
                                       Attribute{"b", inf}}));
    PartiallyClosedSetting setting = base;
    setting.dm = Instance(dm_schema);
    setting.dm.AddTuple("M1", {I(0)});
    setting.dm.AddTuple(name, narrow ? Tuple{I(0)} : Tuple{I(0), I(1)});
    setting.ccs.emplace_back(
        "p_in_m2", ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"P", {V(0)}}}),
        "M2", std::vector<int>{1});
    broken.push_back({narrow ? "narrow Dm" : "renamed Dm", std::move(setting),
                      StatusCode::kInvalidArgument,
                      std::string("master data relation ") + name +
                          (narrow ? "/1" : "/2") +
                          " does not match master schema relation M2/2"});
  }

  // Dm whose M2 differs from the master schema's only in the domain of b.
  {
    PartiallyClosedSetting setting = base;
    DatabaseSchema dm_schema;
    dm_schema.AddRelation(RelationSchema("M1", {Attribute{"a", inf}}));
    dm_schema.AddRelation(RelationSchema(
        "M2", {Attribute{"a", inf}, Attribute{"b", Domain::IntRange(0, 1)}}));
    setting.dm = Instance(dm_schema);
    setting.dm.AddTuple("M1", {I(0)});
    setting.dm.AddTuple("M2", {I(0), I(1)});
    broken.push_back({"Dm domain", std::move(setting),
                      StatusCode::kInvalidArgument,
                      "master data relation M2/2 does not match master "
                      "schema relation M2/2: attribute b has another domain"});
  }

  // CCs that do not validate, alone and after a CC that does.
  const struct {
    const char* what;
    ContainmentConstraint cc;
    StatusCode code;
    const char* message;
  } bad_ccs[] = {
      {"unknown master",
       ContainmentConstraint(
           "nomaster",
           ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"P", {V(0)}}}), "Nope",
           {0}),
       StatusCode::kNotFound,
       "CC 'nomaster' references unknown master 'Nope'"},
      {"unknown relation",
       ContainmentConstraint(
           "norel", ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"Q", {V(0)}}}),
           "M1", {0}),
       StatusCode::kNotFound, "query references unknown relation 'Q'"},
      {"unsafe head",
       ContainmentConstraint(
           "unsafe", ConjunctiveQuery({CTerm(V(3))}, {RelAtom{"P", {V(0)}}}),
           "M1", {0}),
       StatusCode::kInvalidArgument,
       "unsafe head term x3 in query (x3) :- P(x0)"},
  };
  for (const auto& bad : bad_ccs) {
    for (const bool after_passing : {false, true}) {
      PartiallyClosedSetting setting = base;
      if (!after_passing) setting.ccs.clear();
      setting.ccs.push_back(bad.cc);
      broken.push_back({std::string(bad.what) +
                            (after_passing ? " after a valid CC" : ""),
                        std::move(setting), bad.code, bad.message});
    }
  }

  ServiceOptions options;
  options.num_workers = 0;
  CompletenessService service(options);
  for (const Broken& b : broken) {
    Result<PreparedSetting> got = PreparedSetting::Prepare(b.setting);
    ASSERT_FALSE(got.ok()) << b.what;
    EXPECT_EQ(got.status().code(), b.code) << b.what;
    EXPECT_EQ(got.status().message(), b.message) << b.what;
    Result<SettingHandle> registered = service.RegisterSetting(b.setting);
    ASSERT_FALSE(registered.ok()) << b.what;
    EXPECT_EQ(registered.status().code(), b.code) << b.what;
    EXPECT_EQ(registered.status().message(), b.message) << b.what;
  }
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
    AdomContext direct = AdomContext::BuildFromSeed(
        std::make_shared<const AdomSeed>(fresh_seed), fx.ctable, q);
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

TEST(PreparedSettingTest, DecidersAgreeAcrossHandles) {
  // One handle serving every call (its seed and CC plans warm) answers as a
  // handle prepared afresh for each call.
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(shared, PreparedSetting::Prepare(fx.setting));
  for (const Query* q : {&fx.q1, &fx.q2, &fx.q4}) {
    ASSERT_OK_AND_ASSIGN(
        fresh_strong,
        RcdpStrong(*q, fx.ctable, testing::MustPrepare(fx.setting)));
    ASSERT_OK_AND_ASSIGN(shared_strong, RcdpStrong(*q, fx.ctable, shared));
    EXPECT_EQ(fresh_strong, shared_strong) << (*q).ToString();

    ASSERT_OK_AND_ASSIGN(
        fresh_viable,
        RcdpViable(*q, fx.ctable, testing::MustPrepare(fx.setting)));
    ASSERT_OK_AND_ASSIGN(shared_viable, RcdpViable(*q, fx.ctable, shared));
    EXPECT_EQ(fresh_viable, shared_viable) << (*q).ToString();

    ASSERT_OK_AND_ASSIGN(
        fresh_minp,
        MinpStrongGround(*q, fx.ground, testing::MustPrepare(fx.setting)));
    ASSERT_OK_AND_ASSIGN(shared_minp, MinpStrongGround(*q, fx.ground, shared));
    EXPECT_EQ(fresh_minp, shared_minp) << (*q).ToString();
  }
  ASSERT_OK_AND_ASSIGN(
      fresh_weak, RcdpWeak(fx.q4, fx.ctable, testing::MustPrepare(fx.setting)));
  ASSERT_OK_AND_ASSIGN(shared_weak, RcdpWeak(fx.q4, fx.ctable, shared));
  EXPECT_EQ(fresh_weak, shared_weak);
}

TEST(PreparedSettingTest, SearchStatsIdenticalAcrossHandles) {
  // A warm handle does the same logical work, not just reach the same
  // answer: every counter agrees with a fresh handle's.
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(shared, PreparedSetting::Prepare(fx.setting));
  ASSERT_TRUE(RcdpStrong(fx.q1, fx.ctable, shared).ok());  // warm it
  SearchStats fresh_stats, shared_stats;
  ASSERT_OK_AND_ASSIGN(fresh, RcdpStrong(fx.q1, fx.ctable,
                                         testing::MustPrepare(fx.setting), {},
                                         &fresh_stats));
  ASSERT_OK_AND_ASSIGN(
      warm, RcdpStrong(fx.q1, fx.ctable, shared, {}, &shared_stats));
  EXPECT_EQ(fresh, warm);
  EXPECT_EQ(fresh_stats.valuations, shared_stats.valuations);
  EXPECT_EQ(fresh_stats.worlds, shared_stats.worlds);
  EXPECT_EQ(fresh_stats.extensions, shared_stats.extensions);
  EXPECT_EQ(fresh_stats.cc_checks, shared_stats.cc_checks);
  EXPECT_EQ(fresh_stats.query_evals, shared_stats.query_evals);
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

TEST(PreparedSettingTest, ExtensionSearchCountersArePinned) {
  // The tuple and valuation walks and the bounded extension DFS visit their
  // candidates in one fixed order (first column and lowest variable id
  // fastest; relation, then candidate). These counts, witnesses and
  // explored totals pin that order: a walk in another order reaches the
  // same verdicts by different work. P(a ∈ [0, 2], b ∈ [0, 3]) under the
  // non-IND CC π_b σ_{b ≠ 3} P ⊆ M = {0, 1}: every tuple with b = 2
  // breaks it. Int constants only, so no count depends on the order in
  // which symbols were interned.
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
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "P", {Attribute{"a", Domain::IntRange(0, 2)},
            Attribute{"b", Domain::IntRange(0, 3)}}));
  setting.master_schema.AddRelation(
      RelationSchema("M", {Attribute{"b", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  setting.dm.AddTuple("M", {I(0)});
  setting.dm.AddTuple("M", {I(1)});
  setting.ccs.emplace_back(
      "b_known",
      ConjunctiveQuery({CTerm(V(1))}, {RelAtom{"P", {V(0), V(1)}}},
                       {CondAtom{V(1), true, I(3)}}),
      "M", std::vector<int>{0});
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(setting));
  ASSERT_FALSE(prepared.all_inds());
  // Q(x, y) :- P(x, y); Q(y) :- P(x, y), x = 0; Q(x) :- P(x, y), y = k.
  const Query all = Query::Cq(ConjunctiveQuery(
      {CTerm(V(0)), CTerm(V(1))}, {RelAtom{"P", {V(0), V(1)}}}));
  const Query x0 = Query::Cq(ConjunctiveQuery(
      {CTerm(V(1))}, {RelAtom{"P", {V(0), V(1)}}},
      {CondAtom{V(0), false, I(0)}}));
  auto y_is = [](int64_t k) {
    return Query::Cq(ConjunctiveQuery(
        {CTerm(V(0))}, {RelAtom{"P", {V(0), V(1)}}},
        {CondAtom{V(1), false, I(k)}}));
  };
  // Two rows over two variables: valuations (0,0), (1,0), (0,1), (1,1)
  // survive the CC and give three distinct worlds.
  CInstance swapped(setting.schema);
  swapped.at("P").AddRow({Cell(V(0)), Cell(V(1))});
  swapped.at("P").AddRow({Cell(V(1)), Cell(V(0))});

  // RCQP, strong model: the bounded witness search (the CC is no IND).
  {
    SearchStats stats;
    ASSERT_OK_AND_ASSIGN(r, RcqpStrongBounded(all, prepared, 2, {}, &stats));
    EXPECT_FALSE(r.found);
    EXPECT_TRUE(r.bound_exhausted);
    expect_counts(stats, {57, 0, 47, 47, 46}, "rcqp all/2");
  }
  {
    SearchStats stats;
    ASSERT_OK_AND_ASSIGN(r, RcqpStrongBounded(x0, prepared, 3, {}, &stats));
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.witness.at("P").rows(),
              (std::vector<Tuple>{{I(0), I(0)}, {I(0), I(1)}, {I(0), I(3)}}));
    expect_counts(stats, {61, 0, 26, 26, 21}, "rcqp x0/3");
  }

  // Bounded incompleteness search around one ground instance.
  Instance one(setting.schema);
  one.AddTuple("P", {I(0), I(0)});
  {
    SearchStats stats;
    ASSERT_OK_AND_ASSIGN(
        r, SearchIncompletenessGround(y_is(3), one, prepared, 2, {}, &stats));
    EXPECT_TRUE(r.witness_found);
    EXPECT_EQ(r.explored, 9u);
    EXPECT_EQ(r.witness.answer, Tuple{I(0)});
    EXPECT_EQ(r.witness.extension.at("P").rows(),
              (std::vector<Tuple>{{I(0), I(0)}, {I(0), I(3)}, {I(1), I(0)}}));
    expect_counts(stats, {0, 0, 9, 9, 7}, "ground y=3/2");
  }
  {
    SearchStats stats;
    ASSERT_OK_AND_ASSIGN(
        r, SearchIncompletenessGround(y_is(2), one, prepared, 2, {}, &stats));
    EXPECT_FALSE(r.witness_found);
    EXPECT_EQ(r.explored, 54u);
    expect_counts(stats, {0, 0, 54, 54, 37}, "ground y=2/2");
  }

  // The same search in every world of Mod(T, Dm, V).
  {
    SearchStats stats;
    const Query q = y_is(2);
    ASSERT_OK_AND_ASSIGN(
        r, SearchIncompletenessStrong(q, swapped, prepared, 1, {}, &stats));
    EXPECT_FALSE(r.witness_found);
    EXPECT_EQ(r.explored, 32u);
    expect_counts(stats, {9, 3, 32, 41, 26}, "strong y=2/1");
  }
  {
    SearchStats stats;
    const Query q = y_is(3);
    ASSERT_OK_AND_ASSIGN(
        r, SearchIncompletenessStrong(q, swapped, prepared, 1, {}, &stats));
    EXPECT_TRUE(r.witness_found);
    EXPECT_EQ(r.explored, 9u);
    EXPECT_EQ(r.witness.answer, Tuple{I(0)});
    EXPECT_EQ(r.witness.world.at("P").rows(),
              (std::vector<Tuple>{{I(0), I(0)}}));
    expect_counts(stats, {1, 1, 9, 10, 7}, "strong y=3/1");
  }

  // Extensibility: the first closed single-tuple extension.
  {
    SearchStats stats;
    ExtensionWitness witness;
    Instance db(setting.schema);  // every tuple with b ∈ {0, 1}
    for (int64_t b = 0; b <= 1; ++b) {
      for (int64_t a = 0; a <= 2; ++a) db.AddTuple("P", {I(a), I(b)});
    }
    ASSERT_OK_AND_ASSIGN(
        extensible, IsExtensible(prepared, db, {}, &stats, &witness));
    EXPECT_TRUE(extensible);
    EXPECT_EQ(witness.relation, "P");
    EXPECT_EQ(witness.tuple, (Tuple{I(0), I(3)}));
    expect_counts(stats, {0, 0, 10, 4, 0}, "extensible");
  }

  // Weak model over three worlds.
  {
    SearchStats stats;
    ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(all, swapped, prepared, {}, &stats));
    EXPECT_TRUE(weak);
    expect_counts(stats, {4, 4, 15, 17, 12}, "weak all");
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
  ASSERT_OK_AND_ASSIGN(nonempty, RcqpStrongInd(q, prepared_ind));
  EXPECT_TRUE(nonempty);  // the IND bounds the only head variable
}

TEST(PreparedSettingTest, DecidersRefuseAnInstanceOffTheSchema) {
  // R(a), S(b ∈ {x, y}) and the master M(a), with the CC π_a R ⊆ M: every
  // decider that takes T or I checks first that it is over this schema.
  const Domain inf = Domain::Infinite();
  const RelationSchema r("R", {Attribute{"a", inf}});
  const RelationSchema s("S",
                         {Attribute{"b", Domain::Finite({S("x"), S("y")})}});
  const RelationSchema s_sym("S", {Attribute{"b", inf}});
  PartiallyClosedSetting setting;
  setting.schema = DatabaseSchema({r, s});
  setting.master_schema.AddRelation(RelationSchema("M", {Attribute{"a", inf}}));
  setting.dm = Instance(setting.master_schema);
  setting.dm.AddTuple("M", {S("r0")});
  setting.ccs.emplace_back(
      "r_in_m", ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"R", {V(0)}}}), "M",
      std::vector<int>{0});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  const Query q =
      Query::Cq(ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"R", {V(0)}}}));

  // T = I = {R(r0)} over `schema`.
  auto on_t = [](const DatabaseSchema& schema) {
    CInstance t(schema);
    t.at("R").AddRow({Cell(S("r0"))});
    return t;
  };
  auto on_i = [](const DatabaseSchema& schema) {
    Instance i(schema);
    i.AddTuple("R", {S("r0")});
    return i;
  };
  // The 13 deciders, with their answers on the setting's own schema.
  using C = const CInstance&;
  using G = const Instance&;
  auto found = [](Result<BoundedSearchResult> got) -> Result<bool> {
    if (!got.ok()) return got.status();
    return got->witness_found;
  };
  const struct {
    const char* name;
    std::function<Result<bool>(C, G)> run;
    bool control;
  } deciders[] = {
      {"RcdpStrong", [&](C t, G) { return RcdpStrong(q, t, prepared); }, true},
      {"RcdpViable", [&](C t, G) { return RcdpViable(q, t, prepared); }, true},
      {"RcdpWeak", [&](C t, G) { return RcdpWeak(q, t, prepared); }, true},
      {"RcdpStrongGround",
       [&](C, G i) { return RcdpStrongGround(q, i, prepared); }, true},
      {"MinpStrong", [&](C t, G) { return MinpStrong(q, t, prepared); }, true},
      {"MinpViable", [&](C t, G) { return MinpViable(q, t, prepared); }, true},
      {"MinpWeak", [&](C t, G) { return MinpWeak(q, t, prepared); }, false},
      {"MinpWeakCq", [&](C t, G) { return MinpWeakCq(q, t, prepared); },
       false},
      {"MinpStrongGround",
       [&](C, G i) { return MinpStrongGround(q, i, prepared); }, true},
      {"IsConsistent", [&](C t, G) { return IsConsistent(prepared, t); },
       true},
      {"IsExtensible", [&](C, G i) { return IsExtensible(prepared, i); },
       true},
      {"SearchIncompletenessGround",
       [&](C, G i) {
         return found(SearchIncompletenessGround(q, i, prepared, 1));
       },
       false},
      {"SearchIncompletenessStrong",
       [&](C t, G) {
         return found(SearchIncompletenessStrong(q, t, prepared, 1));
       },
       false},
  };

  const struct {
    const char* what;
    DatabaseSchema schema;
    std::string message;
  } bad[] = {
      {"without S", DatabaseSchema({r}),
       "instance lacks setting schema relation S/1"},
      {"S before R", DatabaseSchema({s, r}),
       "instance relation S/1 does not match setting schema relation R/1"},
      {"S.b typed sym", DatabaseSchema({r, s_sym}),
       "instance relation S/1 does not match setting schema relation S/1: "
       "attribute b has another domain"},
  };
  for (const auto& d : deciders) {
    const Result<bool> answer =
        d.run(on_t(setting.schema), on_i(setting.schema));
    ASSERT_TRUE(answer.ok()) << d.name << ": " << answer.status().ToString();
    EXPECT_EQ(*answer, d.control) << d.name;
    for (const auto& b : bad) {
      const Status refused = d.run(on_t(b.schema), on_i(b.schema)).status();
      EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
          << d.name << " on T " << b.what << ": " << refused.ToString();
      EXPECT_EQ(refused.message(), b.message) << d.name << " on T " << b.what;
    }
  }

  // The service returns the refusal as the decision of every kind that
  // reads T, and the next valid request still succeeds.
  ServiceOptions options;
  options.num_workers = 0;
  CompletenessService service(options);
  ASSERT_OK_AND_ASSIGN(handle, service.RegisterSetting(setting));
  for (ProblemKind kind : AllProblemKinds()) {
    if (kind == ProblemKind::kRcqpStrong || kind == ProblemKind::kRcqpWeak) {
      continue;
    }
    DecisionRequest request;
    request.kind = kind;
    request.query = q;
    for (const auto& b : bad) {
      request.cinstance = on_t(b.schema);
      const Decision refused = service.Decide({handle, request});
      EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument)
          << ProblemKindName(kind) << " on T " << b.what;
      EXPECT_EQ(refused.status.message(), b.message)
          << ProblemKindName(kind) << " on T " << b.what;
    }
    request.cinstance = on_t(setting.schema);
    const Decision valid = service.Decide({handle, request});
    EXPECT_TRUE(valid.status.ok())
        << ProblemKindName(kind) << ": " << valid.status.ToString();
  }
}

}  // namespace
}  // namespace relcomp
