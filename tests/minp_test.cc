// Tests for MINP in the three models: Lemma 4.7 single-tuple removals,
// the Lemma 5.7 coDP dichotomy for weak CQ minimality (with Example 5.5),
// and the Thm 4.8 / Cor 6.3 / Thm 5.6 reduction sweeps.
#include <gtest/gtest.h>

#include "core/minp.h"
#include "reductions/thm48_minps.h"
#include "reductions/thm56_minpw.h"
#include "reductions/thm61_viable.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

// Boolean unary relation bounded by master {0, 1}.
struct BoolFixture {
  PartiallyClosedSetting setting;
  Query q;

  BoolFixture() {
    setting.schema.AddRelation(
        RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
    setting.master_schema.AddRelation(
        RelationSchema("Bm", {Attribute{"x", Domain::Boolean()}}));
    setting.dm = Instance(setting.master_schema);
    setting.dm.AddTuple("Bm", {I(0)});
    setting.dm.AddTuple("Bm", {I(1)});
    ConjunctiveQuery cc_q({CTerm(V(0))}, {RelAtom{"B", {V(0)}}});
    setting.ccs.emplace_back("bound", std::move(cc_q), "Bm",
                             std::vector<int>{0});
    q = Query::Cq(ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"B", {V(0)}}}));
  }
};

TEST(MinpStrongGroundTest, FullRelationIsMinimal) {
  BoolFixture fx;
  Instance db(fx.setting.schema);
  db.AddTuple("B", {I(0)});
  db.AddTuple("B", {I(1)});
  // Complete; removing any tuple re-opens the instance (the removed value
  // can be re-added, changing the answer), so both tuples are necessary.
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(minimal, MinpStrongGround(fx.q, db, prepared));
  EXPECT_TRUE(minimal);
}

TEST(MinpStrongGroundTest, IncompleteInstanceNotMinimal) {
  BoolFixture fx;
  Instance db(fx.setting.schema);
  db.AddTuple("B", {I(0)});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(minimal, MinpStrongGround(fx.q, db, prepared));
  EXPECT_FALSE(minimal);
}

TEST(MinpStrongGroundTest, RedundantTupleBreaksMinimality) {
  // Add a second relation D that the query ignores: its tuples are
  // removable without affecting completeness.
  BoolFixture fx;
  fx.setting.schema.AddRelation(
      RelationSchema("D", {Attribute{"x", Domain::Boolean()}}));
  fx.setting.master_schema.AddRelation(
      RelationSchema("Dm", {Attribute{"x", Domain::Boolean()}}));
  Instance dm(fx.setting.master_schema);
  dm.AddTuple("Bm", {I(0)});
  dm.AddTuple("Bm", {I(1)});
  dm.AddTuple("Dm", {I(0)});
  dm.AddTuple("Dm", {I(1)});
  fx.setting.dm = dm;
  ConjunctiveQuery cc_q({CTerm(V(0))}, {RelAtom{"D", {V(0)}}});
  fx.setting.ccs.emplace_back("dbound", std::move(cc_q), "Dm",
                              std::vector<int>{0});
  Instance db(fx.setting.schema);
  db.AddTuple("B", {I(0)});
  db.AddTuple("B", {I(1)});
  db.AddTuple("D", {I(0)});
  db.AddTuple("D", {I(1)});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(minimal, MinpStrongGround(fx.q, db, prepared));
  EXPECT_FALSE(minimal);
}

TEST(MinpStrongTest, CInstanceMinimalityQuantifiesAllWorlds) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  t.at("B").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(minimal, MinpStrong(fx.q, t, prepared));
  EXPECT_TRUE(minimal);
  // Adding a variable row: the worlds where it collapses onto {0,1} stay
  // minimal; there is no third value (domain is Boolean), so all worlds
  // still minimal — but the c-instance has a redundant row.
  CInstance t2 = t;
  t2.at("B").AddRow({Cell(V(0))});
  ASSERT_OK_AND_ASSIGN(minimal2, MinpStrong(fx.q, t2, prepared));
  EXPECT_TRUE(minimal2);  // worlds are still exactly {0,1}
}

TEST(MinpViableTest, SomeWorldMinimalSuffices) {
  BoolFixture fx;
  // Master bound shrunk to {1}: world x=1 gives the minimal complete {1}.
  fx.setting.dm.at("Bm").Erase({I(0)});
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(viable_min, MinpViable(fx.q, t, prepared));
  EXPECT_TRUE(viable_min);
  ASSERT_OK_AND_ASSIGN(strong_min, MinpStrong(fx.q, t, prepared));
  EXPECT_TRUE(strong_min);  // the only world is {1}
}

TEST(MinpWeakTest, Example55EmptyIsMinimalNonEmptyIsNot) {
  // Example 5.5: Q(x) :- R1(y), R2(z), x = a. Both ∅ and ({0},{1}) are
  // weakly complete; only ∅ is minimal.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema("R1", {Attribute{"x"}}));
  setting.schema.AddRelation(RelationSchema("R2", {Attribute{"x"}}));
  setting.dm = Instance(setting.master_schema);
  Query q = Query::Cq(ConjunctiveQuery(
      {CTerm(S("a"))}, {RelAtom{"R1", {V(0)}}, RelAtom{"R2", {V(1)}}}));
  CInstance empty(setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(empty_min, MinpWeak(q, empty, prepared));
  EXPECT_TRUE(empty_min);
  CInstance i0(setting.schema);
  i0.at("R1").AddRow({Cell(I(0))});
  i0.at("R2").AddRow({Cell(I(1))});
  ASSERT_OK_AND_ASSIGN(i0_min, MinpWeak(q, i0, prepared));
  EXPECT_FALSE(i0_min);  // ∅ ⊊ I0 is weakly complete too
  // The CQ fast path agrees.
  ASSERT_OK_AND_ASSIGN(fast_empty, MinpWeakCq(q, empty, prepared));
  EXPECT_TRUE(fast_empty);
  ASSERT_OK_AND_ASSIGN(fast_i0, MinpWeakCq(q, i0, prepared));
  EXPECT_FALSE(fast_i0);
}

TEST(MinpWeakTest, SingletonDichotomy) {
  // Single Boolean relation with Q = identity and master bound {1}: the
  // empty instance is NOT weakly complete (every extension answers {1}),
  // so per Lemma 5.7 exactly the consistent singletons are minimal.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(
      RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
  setting.master_schema.AddRelation(
      RelationSchema("Bm", {Attribute{"x", Domain::Boolean()}}));
  setting.dm = Instance(setting.master_schema);
  setting.dm.AddTuple("Bm", {I(1)});
  ConjunctiveQuery cc_q({CTerm(V(0))}, {RelAtom{"B", {V(0)}}});
  setting.ccs.emplace_back("bound", std::move(cc_q), "Bm",
                           std::vector<int>{0});
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"B", {V(0)}}}));

  CInstance empty(setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(empty_weak, RcdpWeak(q, empty, prepared));
  EXPECT_FALSE(empty_weak);
  ASSERT_OK_AND_ASSIGN(empty_min, MinpWeakCq(q, empty, prepared));
  EXPECT_FALSE(empty_min);

  CInstance singleton(setting.schema);
  singleton.at("B").AddRow({Cell(I(1))});
  ASSERT_OK_AND_ASSIGN(single_min, MinpWeakCq(q, singleton, prepared));
  EXPECT_TRUE(single_min);
  ASSERT_OK_AND_ASSIGN(general_agrees, MinpWeak(q, singleton, prepared));
  EXPECT_EQ(single_min, general_agrees);

  CInstance two(setting.schema);
  two.at("B").AddRow({Cell(I(1))});
  two.at("B").AddRow({Cell(V(0))});
  ASSERT_OK_AND_ASSIGN(two_min, MinpWeakCq(q, two, prepared));
  EXPECT_FALSE(two_min);
}

TEST(MinpWeakTest, RowBudgetGuard) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"E", {V(0), V(1)}}}));
  CInstance t(setting.schema);
  for (int i = 0; i < 30; ++i) {
    t.at("E").AddRow({Cell(I(i)), Cell(I(i + 1))});
  }
  const PreparedSetting prepared = testing::MustPrepare(setting);
  Result<bool> r = MinpWeak(q, t, prepared);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Reduction sweeps.
// ---------------------------------------------------------------------------

class Thm48Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Thm48Sweep, MinpStrongMatchesQbfOracle) {
  Qbf qbf = MakeExistsForallExists(1, 1, 1, RandomCnf3(3, 1, GetParam()));
  GadgetProblem gadget = BuildSigma3Gadget(qbf, /*full_rs=*/true);
  EXPECT_OK(gadget.setting.Validate());
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      minimal, MinpStrong(gadget.query, gadget.cinstance, prepared));
  // Claim: ϕ false ⇔ T is a minimal strongly complete c-instance.
  EXPECT_EQ(minimal, !qbf.Eval()) << qbf.matrix.ToString();
}

TEST_P(Thm48Sweep, ViableModelMatchesQbfOracle) {
  Qbf qbf = MakeExistsForallExists(1, 1, 1, RandomCnf3(3, 1, GetParam()));
  GadgetProblem gadget = BuildViableGadget(qbf);
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      viable, RcdpViable(gadget.query, gadget.cinstance, prepared));
  EXPECT_EQ(viable, qbf.Eval()) << qbf.matrix.ToString();
  ASSERT_OK_AND_ASSIGN(
      minimal, MinpViable(gadget.query, gadget.cinstance, prepared));
  EXPECT_EQ(minimal, qbf.Eval()) << qbf.matrix.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Thm48Sweep, ::testing::Range<uint64_t>(0, 8));

class Thm56Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Thm56Sweep, MinpWeakCqMatchesSatUnsatOracle) {
  Cnf3 phi = RandomCnf3(3, 2, GetParam());
  Cnf3 phi_prime = RandomCnf3(3, 2, GetParam() + 1000);
  GadgetProblem gadget = BuildSatUnsatGadget(phi, phi_prime, 3);
  EXPECT_OK(gadget.setting.Validate());
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      minimal, MinpWeakCq(gadget.query, gadget.cinstance, prepared));
  bool sat_unsat = phi.IsSatisfiable() && !phi_prime.IsSatisfiable();
  // Claim: ∅ minimal weakly complete ⇔ ¬(φ sat ∧ φ' unsat).
  EXPECT_EQ(minimal, !sat_unsat)
      << "phi: " << phi.ToString() << " phi': " << phi_prime.ToString();
}

TEST_P(Thm56Sweep, UnsatisfiablePhiMakesEmptyMinimal) {
  // Force φ unsatisfiable: x & !x.
  Cnf3 phi;
  phi.num_vars = 3;
  phi.clauses.push_back({Lit::Pos(0), Lit::Pos(0), Lit::Pos(0)});
  phi.clauses.push_back({Lit::Neg(0), Lit::Neg(0), Lit::Neg(0)});
  Cnf3 phi_prime = RandomCnf3(3, 2, GetParam());
  GadgetProblem gadget = BuildSatUnsatGadget(phi, phi_prime, 3);
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      minimal, MinpWeakCq(gadget.query, gadget.cinstance, prepared));
  EXPECT_TRUE(minimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Thm56Sweep, ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace relcomp
