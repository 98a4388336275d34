// Tests for RCDP in the three completeness models, including the Thm 5.1(3)
// reduction swept against the QBF oracle and the model-relationship
// properties of Section 2.2.
#include <gtest/gtest.h>

#include "core/rcdp.h"
#include "reductions/thm51_rcdpw.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

// Boolean unary relation B bounded by master Bm = {0, 1}; query returns B.
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

TEST(RcdpStrongTest, FullBooleanRelationIsComplete) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  t.at("B").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrong(fx.q, t, prepared));
  EXPECT_TRUE(complete);
}

TEST(RcdpStrongTest, MissingTupleBreaksStrongCompleteness) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  CompletenessWitness witness;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(complete,
                       RcdpStrong(fx.q, t, prepared, {}, nullptr, &witness));
  EXPECT_FALSE(complete);
  EXPECT_EQ(witness.answer, Tuple({I(1)}));
}

TEST(RcdpStrongTest, VariableRowStillCompleteWhenWorldsCovered) {
  // T = {(x), (0), (1)}: every valuation yields the full relation.
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  t.at("B").AddRow({Cell(I(0))});
  t.at("B").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrong(fx.q, t, prepared));
  EXPECT_TRUE(complete);
}

TEST(RcdpStrongTest, VariableRowAloneIsNotStronglyComplete) {
  // T = {(x)}: the world {0} can be extended by (1).
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrong(fx.q, t, prepared));
  EXPECT_FALSE(complete);
}

TEST(RcdpViableTest, VariableRowAloneIsNotViablyCompleteEither) {
  // Both worlds {0} and {1} are extensible with the other value.
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(viable, RcdpViable(fx.q, t, prepared));
  EXPECT_FALSE(viable);
}

TEST(RcdpViableTest, ConditionCanSelectCompleteWorld) {
  // T = {(x), (1)} with a master bound of exactly {1}: only the valuation
  // x = 1 is partially closed, giving the complete world {1}.
  BoolFixture fx;
  fx.setting.dm.at("Bm").Erase({I(0)});
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  t.at("B").AddRow({Cell(I(1))});
  Instance witness;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(viable,
                       RcdpViable(fx.q, t, prepared, {}, nullptr, &witness));
  EXPECT_TRUE(viable);
  EXPECT_TRUE(witness.at("B").Contains({I(1)}));
}

TEST(RcdpWeakTest, WeakHoldsWhenCertainAnswersSurvive) {
  // T = {(x)}: certain answers over worlds {0} / {1} = ∅; every extension
  // yields {0, 1}, whose intersection over extension pairs is... {0}∪{1}
  // per world-extension: world {0} extends to {0,1} only; world {1} too; so
  // extension-certain = {0,1} ∩ {0,1} = {0,1} ⊄ ∅ ⇒ not weakly complete.
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(fx.q, t, prepared));
  EXPECT_FALSE(weak);
}

TEST(RcdpWeakTest, FullRelationWeaklyComplete) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  t.at("B").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(fx.q, t, prepared));
  EXPECT_TRUE(weak);  // no extensions at all
}

TEST(RcdpWeakTest, OpenWorldEmptyInstanceWeaklyComplete) {
  // With no CCs and Q over one relation: extensions of ∅ disagree on every
  // tuple, so the certain extension answer is empty = Q(∅).
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"E", {V(0), V(1)}}}));
  CInstance t(setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(q, t, prepared));
  EXPECT_TRUE(weak);
}

TEST(RcdpWeakTest, SingletonWithConstantAnswerNotWeaklyComplete) {
  // Example 5.5-flavored: Q(x) :- R1(y), R2(z), x = "a" — the constant
  // answer appears in every non-degenerate extension.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema("R1", {Attribute{"x"}}));
  setting.schema.AddRelation(RelationSchema("R2", {Attribute{"x"}}));
  setting.dm = Instance(setting.master_schema);
  ConjunctiveQuery cq({CTerm(S("a"))},
                      {RelAtom{"R1", {V(0)}}, RelAtom{"R2", {V(1)}}});
  Query q = Query::Cq(std::move(cq));
  // I0 = ({0}, {1}): Q(I0) = {a}; every extension also returns {a} — the
  // instance is weakly complete.
  CInstance t(setting.schema);
  t.at("R1").AddRow({Cell(I(0))});
  t.at("R2").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(q, t, prepared));
  EXPECT_TRUE(weak);
  // The empty instance is also weakly complete (extensions with only R1
  // tuples return ∅) — Example 5.5's point about non-monotone minimality.
  CInstance empty(setting.schema);
  ASSERT_OK_AND_ASSIGN(weak_empty, RcdpWeak(q, empty, prepared));
  EXPECT_TRUE(weak_empty);
}

TEST(RcdpTest, InconsistentCInstanceRejectedInAllModels) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  // Deny everything: bound master made empty.
  fx.setting.dm.at("Bm").Erase({I(0)});
  fx.setting.dm.at("Bm").Erase({I(1)});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(fx.q, t, prepared));
  EXPECT_FALSE(strong);
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(fx.q, t, prepared));
  EXPECT_FALSE(weak);
  ASSERT_OK_AND_ASSIGN(viable, RcdpViable(fx.q, t, prepared));
  EXPECT_FALSE(viable);
}

TEST(RcdpTest, UndecidableLanguagesReportStatus) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  FoQuery fo({}, FoFormula::Not(FoFormula::Atom({"B", {I(0)}})));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  EXPECT_EQ(RcdpStrong(Query::Fo(fo), t, prepared).status().code(),
            StatusCode::kUndecidable);
  EXPECT_EQ(RcdpWeak(Query::Fo(fo), t, prepared).status().code(),
            StatusCode::kUndecidable);
  EXPECT_EQ(RcdpViable(Query::Fo(fo), t, prepared).status().code(),
            StatusCode::kUndecidable);
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"B", {V(0)}}}, {}});
  p.set_output("T");
  EXPECT_EQ(RcdpStrong(Query::Fp(p), t, prepared).status().code(),
            StatusCode::kUndecidable);
  // FP in the weak model IS decidable (Theorem 5.1).
  EXPECT_TRUE(RcdpWeak(Query::Fp(p), t, prepared).ok());
}

TEST(RcdpTest, GroundStrongEqualsGroundViable) {
  BoolFixture fx;
  Instance db(fx.setting.schema);
  db.AddTuple("B", {I(0)});
  CInstance t = CInstance::FromInstance(db);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(fx.q, t, prepared));
  ASSERT_OK_AND_ASSIGN(viable, RcdpViable(fx.q, t, prepared));
  EXPECT_EQ(strong, viable);
  db.AddTuple("B", {I(1)});
  CInstance t2 = CInstance::FromInstance(db);
  ASSERT_OK_AND_ASSIGN(strong2, RcdpStrong(fx.q, t2, prepared));
  ASSERT_OK_AND_ASSIGN(viable2, RcdpViable(fx.q, t2, prepared));
  EXPECT_EQ(strong2, viable2);
}

TEST(RcdpStrongTest, WorldsThatPrintAlikeAreStillDistinct) {
  // R holds at most one tuple, drawn from {Int 1, Sym "1"}; S is bounded
  // by Sm = {("1", "a")}. Both worlds of T = {R(x)} render as R{(1)}, but
  // only R(Sym "1") joins with the admissible S("1", "a"), so only the
  // world R(Int 1) is complete for Q(y) :- R(x), S(x, y).
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "R", {Attribute{"a", Domain::Finite({I(1), S("1")})}}));
  setting.schema.AddRelation(RelationSchema(
      "S", {Attribute{"a", Domain::Infinite()},
            Attribute{"b", Domain::Infinite()}}));
  setting.master_schema.AddRelation(
      RelationSchema("Empty1", {Attribute{"w", Domain::Infinite()}}));
  setting.master_schema.AddRelation(RelationSchema(
      "Sm", {Attribute{"a", Domain::Infinite()},
             Attribute{"b", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  setting.dm.AddTuple("Sm", {S("1"), S("a")});
  setting.ccs.emplace_back(
      "r_at_most_one",
      ConjunctiveQuery({CTerm(V(0))},
                       {RelAtom{"R", {V(0)}}, RelAtom{"R", {V(1)}}},
                       {CondAtom{V(0), true, V(1)}}),
      "Empty1", std::vector<int>{0});
  setting.ccs.emplace_back(
      "s_bounded",
      ConjunctiveQuery({CTerm(V(0)), CTerm(V(1))},
                       {RelAtom{"S", {V(0), V(1)}}}),
      "Sm", std::vector<int>{0, 1});
  ASSERT_TRUE(setting.Validate().ok());

  CInstance t(setting.schema);
  t.at("R").AddRow({Cell(V(0))});
  Query q = Query::Cq(ConjunctiveQuery(
      {CTerm(V(1))}, {RelAtom{"R", {V(0)}}, RelAtom{"S", {V(0), V(1)}}}));

  SearchStats stats;
  CompletenessWitness witness;
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(complete,
                       RcdpStrong(q, t, prepared, {}, &stats, &witness));
  EXPECT_FALSE(complete);
  EXPECT_EQ(stats.worlds, 2u);
  EXPECT_EQ(witness.world.at("R").rows(), std::vector<Tuple>{{S("1")}});
  EXPECT_EQ(witness.answer, Tuple({S("a")}));
}

// ---------------------------------------------------------------------------
// Thm 5.1(3): ∃∀∃3SAT ⇔ ¬ weakly complete, swept against the QBF oracle.
// ---------------------------------------------------------------------------

class Thm51Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Thm51Sweep, RcdpWeakMatchesQbfOracle) {
  Qbf qbf = MakeExistsForallExists(1, 2, 1, RandomCnf3(4, 2, GetParam()));
  GadgetProblem gadget = BuildRcdpWeakGadget(qbf);
  EXPECT_OK(gadget.setting.Validate());
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      weak, RcdpWeak(gadget.query, CInstance::FromInstance(gadget.ground),
                     prepared));
  // Claim: ϕ true ⇔ I is NOT weakly complete.
  EXPECT_EQ(!weak, qbf.Eval()) << qbf.matrix.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Thm51Sweep, ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace relcomp
