// Tests for the bounded semi-decision procedures that handle the
// undecidable Table I cells (FO / FP outside the weak model), including the
// Example 5.3 non-monotone FO query.
#include <gtest/gtest.h>

#include "core/bounded.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

TEST(BoundedTest, FindsWitnessForOpenCq) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"E", {V(0), V(1)}}}));
  Instance db(setting.schema);
  db.AddTuple("E", {I(1), I(2)});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(result, SearchIncompletenessGround(q, db, prepared, 1));
  EXPECT_TRUE(result.witness_found);
  EXPECT_TRUE(db.IsProperSubsetOf(result.witness.extension));
}

TEST(BoundedTest, NonMonotoneFoLosesAnswer) {
  // Example 5.3 flavor: Q() holds iff R1 ⊆ R2. Adding a tuple to R1 can
  // flip the answer from true to false — the witness "loses" an answer.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema("R1", {Attribute{"x"}}));
  setting.schema.AddRelation(RelationSchema("R2", {Attribute{"x"}}));
  setting.dm = Instance(setting.master_schema);
  // Q() := forall x (R1(x) -> R2(x)) written as !(exists x (R1(x) & !R2(x))).
  FoPtr bad = FoFormula::Exists(
      {V(0)}, FoFormula::And({FoFormula::Atom({"R1", {V(0)}}),
                              FoFormula::Not(FoFormula::Atom({"R2", {V(0)}}))}));
  Query q = Query::Fo(FoQuery({}, FoFormula::Not(bad)));
  ASSERT_EQ(q.language(), QueryLanguage::kFO);
  Instance db(setting.schema);
  db.AddTuple("R2", {I(1)});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(result, SearchIncompletenessGround(q, db, prepared, 1));
  EXPECT_TRUE(result.witness_found);
  EXPECT_NE(result.witness.note.find("loses"), std::string::npos);
}

TEST(BoundedTest, FpWitnessThroughFixpoint) {
  // Reachability query: adding an edge closes a new path.
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  FpProgram tc;
  tc.AddRule(FpRule{{"T", {V(0), V(1)}}, {{"E", {V(0), V(1)}}}, {}});
  tc.AddRule(FpRule{{"T", {V(0), V(2)}},
                    {{"T", {V(0), V(1)}}, {"E", {V(1), V(2)}}},
                    {}});
  tc.set_output("T");
  Query q = Query::Fp(tc);
  Instance db(setting.schema);
  db.AddTuple("E", {I(1), I(2)});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(result, SearchIncompletenessGround(q, db, prepared, 1));
  EXPECT_TRUE(result.witness_found);
}

TEST(BoundedTest, NoWitnessWhenFullyBounded) {
  // Boolean relation equal to its master bound: no extension exists at all.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(
      RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
  setting.master_schema.AddRelation(
      RelationSchema("Bm", {Attribute{"x", Domain::Boolean()}}));
  setting.dm = Instance(setting.master_schema);
  setting.dm.AddTuple("Bm", {I(0)});
  ConjunctiveQuery cc_q({CTerm(V(0))}, {RelAtom{"B", {V(0)}}});
  setting.ccs.emplace_back("bound", std::move(cc_q), "Bm",
                           std::vector<int>{0});
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"B", {V(0)}}}, {}});
  p.set_output("T");
  Query q = Query::Fp(p);
  Instance db(setting.schema);
  db.AddTuple("B", {I(0)});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(result, SearchIncompletenessGround(q, db, prepared, 2));
  EXPECT_FALSE(result.witness_found);
}

TEST(BoundedTest, StrongSearchScansAllWorlds) {
  // c-instance whose John-world is complete but whose Bob-world is not.
  PartiallyClosedSetting setting;
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
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"B", {V(0)}}}, {}});
  p.set_output("T");
  Query q = Query::Fp(p);
  CInstance t(setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(setting);
  t.at("B").AddRow({Cell(V(0))});  // worlds {0} and {1}, both extensible
  ASSERT_OK_AND_ASSIGN(result, SearchIncompletenessStrong(q, t, prepared, 1));
  EXPECT_TRUE(result.witness_found);
}

TEST(BoundedTest, BudgetExhaustionReported) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  Query q = Query::Cq(ConjunctiveQuery({CTerm(V(0))},
                                       {RelAtom{"E", {V(0), V(1)}}}));
  Instance db(setting.schema);
  for (int i = 0; i < 6; ++i) db.AddTuple("E", {I(i), I(i + 1)});
  SearchOptions options;
  options.max_steps = 2;
  const PreparedSetting prepared = testing::MustPrepare(setting);
  Result<BoundedSearchResult> r =
      SearchIncompletenessGround(q, db, prepared, 2, options);
  // Either it found a witness within two steps or it must report exhaustion.
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace relcomp
