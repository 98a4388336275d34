// Tests for ground-instance relative completeness (the Lemma 4.2/4.3
// characterization), including the Prop 3.1 FD-implication reduction swept
// against Armstrong closure.
#include <gtest/gtest.h>

#include "core/rcdp.h"
#include "reductions/prop31_fd.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

// A minimal MDM-style setting: Visit(nhs, city) bounded by master for EDI.
struct VisitFixture {
  PartiallyClosedSetting setting;
  Query q_edi;  // Q(n) :- Visit(n, "EDI")

  VisitFixture() {
    setting.schema.AddRelation(RelationSchema(
        "Visit", {Attribute{"nhs", Domain::Infinite()},
                  Attribute{"city", Domain::Finite({S("EDI"), S("LON")})}}));
    setting.master_schema.AddRelation(
        RelationSchema("Pm", {Attribute{"nhs", Domain::Infinite()}}));
    setting.dm = Instance(setting.master_schema);
    setting.dm.AddTuple("Pm", {S("n1")});
    setting.dm.AddTuple("Pm", {S("n2")});
    ConjunctiveQuery cc_q({CTerm(V(0))}, {RelAtom{"Visit", {V(0), V(1)}}},
                          {CondAtom{V(1), false, S("EDI")}});
    setting.ccs.emplace_back("edi", std::move(cc_q), "Pm",
                             std::vector<int>{0});
    q_edi = Query::Cq(ConjunctiveQuery(
        {CTerm(V(0))}, {RelAtom{"Visit", {V(0), S("EDI")}}}));
  }
};

TEST(GroundCompletenessTest, CompleteWhenAllMasterRowsPresent) {
  VisitFixture fx;
  Instance db(fx.setting.schema);
  db.AddTuple("Visit", {S("n1"), S("EDI")});
  db.AddTuple("Visit", {S("n2"), S("EDI")});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrongGround(fx.q_edi, db, prepared));
  EXPECT_TRUE(complete);
}

TEST(GroundCompletenessTest, IncompleteWhenMasterRowMissing) {
  VisitFixture fx;
  Instance db(fx.setting.schema);
  db.AddTuple("Visit", {S("n1"), S("EDI")});
  CompletenessWitness witness;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrongGround(fx.q_edi, db, prepared, {},
                                                  nullptr, &witness));
  EXPECT_FALSE(complete);
  // The witness extension adds the missing n2 visit.
  EXPECT_EQ(witness.answer, Tuple({S("n2")}));
}

TEST(GroundCompletenessTest, OpenWorldQueryNeverComplete) {
  VisitFixture fx;
  Query q_lon = Query::Cq(ConjunctiveQuery(
      {CTerm(V(0))}, {RelAtom{"Visit", {V(0), S("LON")}}}));
  Instance db(fx.setting.schema);
  db.AddTuple("Visit", {S("n1"), S("LON")});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrongGround(q_lon, db, prepared));
  EXPECT_FALSE(complete);  // London is unconstrained: new names can appear
}

TEST(GroundCompletenessTest, NotPartiallyClosedIsNotComplete) {
  VisitFixture fx;
  Instance db(fx.setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  db.AddTuple("Visit", {S("unknown"), S("EDI")});  // violates the CC
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrongGround(fx.q_edi, db, prepared));
  EXPECT_FALSE(complete);
}

TEST(GroundCompletenessTest, UcqDisjunctsAllChecked) {
  VisitFixture fx;
  // Q(n) :- Visit(n, EDI) ∪ Q(n) :- Visit(n, LON). The LON disjunct is
  // open-world, so the UCQ is incomplete even with all EDI rows present.
  UnionQuery ucq;
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(V(0))},
                                   {RelAtom{"Visit", {V(0), S("EDI")}}}));
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(V(0))},
                                   {RelAtom{"Visit", {V(0), S("LON")}}}));
  Instance db(fx.setting.schema);
  db.AddTuple("Visit", {S("n1"), S("EDI")});
  db.AddTuple("Visit", {S("n2"), S("EDI")});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(
      complete, RcdpStrongGround(Query::Ucq(ucq), db, prepared));
  EXPECT_FALSE(complete);
}

TEST(GroundCompletenessTest, FoAndFpAreUndecidable) {
  VisitFixture fx;
  Instance db(fx.setting.schema);
  FoQuery fo({}, FoFormula::Not(FoFormula::Atom({"Visit", {S("a"), S("b")}})));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  Result<bool> r = RcdpStrongGround(Query::Fo(fo), db, prepared);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUndecidable);

  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"Visit", {V(0), V(1)}}}, {}});
  p.set_output("T");
  Result<bool> r2 = RcdpStrongGround(Query::Fp(p), db, prepared);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUndecidable);
}

TEST(GroundCompletenessTest, EmptyInstanceCompleteForContradictoryQuery) {
  VisitFixture fx;
  // Q(n) :- Visit(n, c), c = EDI, c = LON — unsatisfiable builtins. The
  // search skips the disjunct instead of testing them under every ν.
  Query q = Query::Cq(ConjunctiveQuery(
      {CTerm(V(0))}, {RelAtom{"Visit", {V(0), V(1)}}},
      {CondAtom{V(1), false, S("EDI")}, CondAtom{V(1), false, S("LON")}}));
  Instance db(fx.setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  SearchStats stats;
  ASSERT_OK_AND_ASSIGN(complete, RcdpStrongGround(q, db, prepared, {}, &stats));
  EXPECT_TRUE(complete);
  EXPECT_EQ(stats.valuations, 0u);
}

// ---------------------------------------------------------------------------
// Prop 3.1: FD implication ⇔ completeness of I∅, against Armstrong closure.
// ---------------------------------------------------------------------------

class Prop31Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop31Sweep, FdImplicationMatchesArmstrong) {
  constexpr int kAttrs = 4;
  std::vector<Fd> theta = RandomFds(kAttrs, 3, GetParam());
  Fd phi;
  phi.lhs = {static_cast<int>(GetParam() % kAttrs)};
  phi.rhs = static_cast<int>((GetParam() / 2) % kAttrs);
  GadgetProblem gadget = BuildFdImplicationGadget(theta, phi, kAttrs);
  EXPECT_OK(gadget.setting.Validate());
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      complete, RcdpStrongGround(gadget.query, gadget.ground, prepared));
  bool implied = FdImplies(theta, phi, kAttrs);
  EXPECT_EQ(complete, implied)
      << "theta[0]=" << (theta.empty() ? "-" : theta[0].ToString())
      << " phi=" << phi.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop31Sweep,
                         ::testing::Range<uint64_t>(0, 16));

}  // namespace
}  // namespace relcomp
