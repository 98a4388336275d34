// Tests for RCQP: the O(1) weak model (Thm 5.4), the bounded strong-model
// witness search (Thm 4.5 / Lemma 4.4), and the PTIME IND case (Cor 7.2).
#include <gtest/gtest.h>

#include "core/rcqp.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

Query EdgeQuery() {
  return Query::Cq(ConjunctiveQuery({CTerm(V(0)), CTerm(V(1))},
                                    {RelAtom{"E", {V(0), V(1)}}}));
}

TEST(RcqpWeakTest, MonotoneLanguagesAreO1True) {
  const PreparedSetting prepared =
      testing::MustPrepare(testing::OpenSetting(testing::EdgeSchema()));
  EXPECT_TRUE(*RcqpWeak(EdgeQuery(), prepared));
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"E", {V(0), V(1)}}}, {}});
  p.set_output("T");
  EXPECT_TRUE(*RcqpWeak(Query::Fp(p), prepared));
}

TEST(RcqpWeakTest, FoIsUndecidable) {
  const PreparedSetting prepared =
      testing::MustPrepare(testing::OpenSetting(testing::EdgeSchema()));
  FoQuery fo({}, FoFormula::Not(FoFormula::Atom({"E", {I(0), I(0)}})));
  Result<bool> r = RcqpWeak(Query::Fo(fo), prepared);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUndecidable);
}

TEST(RcqpBoundedTest, UnboundedOpenQueryHasNoCompleteInstance) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(result, RcqpStrongBounded(EdgeQuery(), prepared, 2));
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.bound_exhausted);
}

TEST(RcqpBoundedTest, ContradictoryQueryCompleteOnEmptyInstance) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  Query q = Query::Cq(ConjunctiveQuery(
      {CTerm(V(0))}, {RelAtom{"E", {V(0), V(1)}}},
      {CondAtom{V(0), false, I(1)}, CondAtom{V(0), false, I(2)}}));
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(result, RcqpStrongBounded(q, prepared, 1));
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.witness.Empty());
}

TEST(RcqpBoundedTest, BoundedBooleanDomainFindsWitness) {
  // B(x) over a Boolean domain with no CCs: the full relation {0, 1} is
  // complete (nothing can be added).
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(
      RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
  setting.dm = Instance(setting.master_schema);
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"B", {V(0)}}}));
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(result, RcqpStrongBounded(q, prepared, 2));
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.witness.at("B").size(), 2u);
}

TEST(RcqpBoundedTest, UndecidableLanguagesRejected) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"E", {V(0), V(1)}}}, {}});
  p.set_output("T");
  const PreparedSetting prepared = testing::MustPrepare(setting);
  EXPECT_EQ(RcqpStrongBounded(Query::Fp(p), prepared, 1).status().code(),
            StatusCode::kUndecidable);
}

// ---------------------------------------------------------------------------
// The IND PTIME case (Corollary 7.2).
// ---------------------------------------------------------------------------

struct IndFixture {
  PartiallyClosedSetting setting;

  IndFixture() {
    setting.schema.AddRelation(RelationSchema(
        "Visit", {Attribute{"nhs", Domain::Infinite()},
                  Attribute{"note", Domain::Infinite()}}));
    setting.master_schema.AddRelation(
        RelationSchema("Pm", {Attribute{"nhs", Domain::Infinite()}}));
    setting.dm = Instance(setting.master_schema);
    setting.dm.AddTuple("Pm", {S("n1")});
    // IND: π(nhs)(Visit) ⊆ π(nhs)(Pm).
    ConjunctiveQuery proj({CTerm(V(0))}, {RelAtom{"Visit", {V(0), V(1)}}});
    setting.ccs.emplace_back("ind", std::move(proj), "Pm",
                             std::vector<int>{0});
  }
};

TEST(RcqpIndTest, CoveredHeadVariableIsBounded) {
  IndFixture fx;
  // Q(n) :- Visit(n, y): head var n sits in the IND-covered column.
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"Visit", {V(0), V(1)}}}));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(nonempty, RcqpStrongInd(q, prepared));
  EXPECT_TRUE(nonempty);
  ASSERT_OK_AND_ASSIGN(d, q.Disjuncts());
  EXPECT_TRUE(IsBoundedDisjunct(d[0], fx.setting.schema, fx.setting.ccs));
}

TEST(RcqpIndTest, UncoveredHeadVariableIsUnbounded) {
  IndFixture fx;
  // Q(y) :- Visit(n, y): the note column is not covered by any IND.
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(1))},
                                       {RelAtom{"Visit", {V(0), V(1)}}}));
  ASSERT_OK_AND_ASSIGN(d, q.Disjuncts());
  EXPECT_FALSE(IsBoundedDisjunct(d[0], fx.setting.schema, fx.setting.ccs));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(nonempty, RcqpStrongInd(q, prepared));
  EXPECT_FALSE(nonempty);  // a valid valuation exists (via the master n1)
}

TEST(RcqpIndTest, UnboundedButUnsatisfiableQueryStillFine) {
  IndFixture fx;
  // Q(y) :- Visit(n, y), y = a, y = b: no valid valuation, found without
  // enumerating any.
  Query q = Query::Cq(ConjunctiveQuery(
      {CTerm(V(1))}, {RelAtom{"Visit", {V(0), V(1)}}},
      {CondAtom{V(1), false, S("a")}, CondAtom{V(1), false, S("b")}}));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  SearchStats stats;
  ASSERT_OK_AND_ASSIGN(nonempty, RcqpStrongInd(q, prepared, {}, &stats));
  EXPECT_TRUE(nonempty);
  EXPECT_EQ(stats.valuations, 0u);
}

TEST(RcqpIndTest, FiniteDomainHeadIsBounded) {
  IndFixture fx;
  fx.setting.schema.AddRelation(RelationSchema(
      "Flag", {Attribute{"b", Domain::Boolean()}}));
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"Flag", {V(0)}}}));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(nonempty, RcqpStrongInd(q, prepared));
  EXPECT_TRUE(nonempty);
}

TEST(RcqpIndTest, NonIndCcsRejected) {
  IndFixture fx;
  ConjunctiveQuery sel({CTerm(V(0))}, {RelAtom{"Visit", {V(0), V(1)}}},
                       {CondAtom{V(1), false, S("x")}});
  fx.setting.ccs.emplace_back("sel", std::move(sel), "Pm",
                              std::vector<int>{0});
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"Visit", {V(0), V(1)}}}));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  Result<bool> r = RcqpStrongInd(q, prepared);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RcqpIndTest, AgreesWithBoundedSearchOnBoundedCase) {
  IndFixture fx;
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"Visit", {V(0), V(1)}}}));
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(ptime, RcqpStrongInd(q, prepared));
  ASSERT_OK_AND_ASSIGN(search, RcqpStrongBounded(q, prepared, 2));
  EXPECT_EQ(ptime, search.found);
}

}  // namespace
}  // namespace relcomp
