// Unit tests for c-tables: conditions, valuations, c-instances (Sec. 2.2).
#include <gtest/gtest.h>

#include "ctable/cinstance.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

TEST(ValuationTest, BindResolveUnbind) {
  Valuation mu;
  EXPECT_FALSE(mu.IsBound(V(0)));
  mu.Bind(V(0), I(7));
  EXPECT_TRUE(mu.IsBound(V(0)));
  EXPECT_EQ(*mu.Get(V(0)), I(7));
  mu.Unbind(V(0));
  EXPECT_FALSE(mu.IsBound(V(0)));
}

TEST(ValuationTest, ResolveConstantsPassThrough) {
  Valuation mu;
  EXPECT_EQ(*mu.Resolve(CTerm(I(3))), I(3));
  EXPECT_FALSE(mu.Resolve(CTerm(V(9))).has_value());
}

TEST(ConditionTest, TrivialConditionIsTrue) {
  Valuation mu;
  EXPECT_EQ(*Condition::True().Eval(mu), true);
  EXPECT_TRUE(Condition::True().IsTrivial());
}

TEST(ConditionTest, NeqConst) {
  Condition c = Condition::VarNeqConst(V(0), I(2001));
  Valuation mu;
  mu.Bind(V(0), I(2000));
  EXPECT_EQ(*c.Eval(mu), true);
  mu.Bind(V(0), I(2001));
  EXPECT_EQ(*c.Eval(mu), false);
}

TEST(ConditionTest, EqConstAndVarNeqVar) {
  Condition eq = Condition::VarEqConst(V(0), S("EDI"));
  Condition neq = Condition::VarNeqVar(V(0), V(1));
  Valuation mu;
  mu.Bind(V(0), S("EDI"));
  mu.Bind(V(1), S("EDI"));
  EXPECT_EQ(*eq.Eval(mu), true);
  EXPECT_EQ(*neq.Eval(mu), false);
}

TEST(ConditionTest, UnboundVariableYieldsUnknown) {
  Condition c = Condition::VarNeqConst(V(0), I(1));
  Valuation mu;
  EXPECT_FALSE(c.Eval(mu).has_value());
  EXPECT_TRUE(c.PossiblySatisfiable(mu));  // unknown ⇒ possibly true
}

TEST(ConditionTest, ConjunctionSemantics) {
  Condition c({CondAtom{V(0), false, I(1)}, CondAtom{V(1), true, I(2)}});
  Valuation mu;
  mu.Bind(V(0), I(1));
  mu.Bind(V(1), I(3));
  EXPECT_EQ(*c.Eval(mu), true);
  mu.Bind(V(1), I(2));
  EXPECT_EQ(*c.Eval(mu), false);
  EXPECT_FALSE(c.PossiblySatisfiable(mu));
}

TEST(ConditionTest, CollectVarsAndConstants) {
  Condition c({CondAtom{V(3), false, I(1)}, CondAtom{V(4), true, V(3)}});
  std::vector<VarId> vars;
  std::vector<Value> consts;
  c.CollectVars(&vars);
  c.CollectConstants(&consts);
  EXPECT_EQ(vars.size(), 3u);  // with duplicates
  EXPECT_EQ(consts.size(), 1u);
}

TEST(CTableTest, ApplyProducesGroundRelation) {
  CTable t(RelationSchema::Anonymous("R", 2));
  t.AddRow({Cell(I(1)), Cell(V(0))});
  Valuation mu;
  mu.Bind(V(0), S("a"));
  ASSERT_OK_AND_ASSIGN(rel, t.Apply(mu));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains({I(1), S("a")}));
}

TEST(CTableTest, ConditionDropsRow) {
  CTable t(RelationSchema::Anonymous("R", 1));
  t.AddRow(CRow{{Cell(V(0))}, Condition::VarNeqConst(V(0), I(5))});
  Valuation mu;
  mu.Bind(V(0), I(5));
  ASSERT_OK_AND_ASSIGN(dropped, t.Apply(mu));
  EXPECT_TRUE(dropped.empty());
  mu.Bind(V(0), I(6));
  ASSERT_OK_AND_ASSIGN(kept, t.Apply(mu));
  EXPECT_EQ(kept.size(), 1u);
}

TEST(CTableTest, TwoRowsCanCollapseUnderValuation) {
  CTable t(RelationSchema::Anonymous("R", 1));
  t.AddRow({Cell(V(0))});
  t.AddRow({Cell(I(1))});
  Valuation mu;
  mu.Bind(V(0), I(1));
  ASSERT_OK_AND_ASSIGN(rel, t.Apply(mu));
  EXPECT_EQ(rel.size(), 1u);  // both rows map to (1)
}

TEST(CTableTest, UnboundCellVariableFails) {
  CTable t(RelationSchema::Anonymous("R", 1));
  t.AddRow({Cell(V(0))});
  Valuation mu;
  Result<Relation> r = t.Apply(mu);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CTableTest, IsGroundDetection) {
  CTable ground(RelationSchema::Anonymous("R", 1));
  ground.AddRow({Cell(I(1))});
  EXPECT_TRUE(ground.IsGround());
  CTable with_var(RelationSchema::Anonymous("R", 1));
  with_var.AddRow({Cell(V(0))});
  EXPECT_FALSE(with_var.IsGround());
  CTable with_cond(RelationSchema::Anonymous("R", 1));
  with_cond.AddRow(CRow{{Cell(I(1))}, Condition::VarNeqConst(V(0), I(1))});
  EXPECT_FALSE(with_cond.IsGround());
}

TEST(CTableTest, FromRelationRoundTrip) {
  Relation r(RelationSchema::Anonymous("R", 2));
  r.Insert({I(1), I(2)});
  r.Insert({I(3), I(4)});
  CTable t = CTable::FromRelation(r);
  EXPECT_TRUE(t.IsGround());
  Valuation empty;
  ASSERT_OK_AND_ASSIGN(back, t.Apply(empty));
  EXPECT_EQ(back, r);
}

TEST(CTableTest, CollectVarsAndConstants) {
  CTable t(RelationSchema::Anonymous("R", 2));
  t.AddRow(CRow{{Cell(V(0)), Cell(I(9))},
                Condition::VarNeqVar(V(0), V(1))});
  std::vector<VarId> vars;
  std::vector<Value> consts;
  t.CollectVars(&vars);
  t.CollectConstants(&consts);
  EXPECT_EQ(vars.size(), 3u);
  EXPECT_EQ(consts.size(), 1u);
}

TEST(CInstanceTest, ApplyAllTables) {
  DatabaseSchema schema = testing::EdgeSchema();
  schema.AddRelation(RelationSchema("N", {Attribute{"x"}}));
  CInstance ci(schema);
  ci.at("E").AddRow({Cell(I(1)), Cell(V(0))});
  ci.at("N").AddRow({Cell(V(0))});
  Valuation mu;
  mu.Bind(V(0), I(2));
  ASSERT_OK_AND_ASSIGN(inst, ci.Apply(mu));
  EXPECT_TRUE(inst.at("E").Contains({I(1), I(2)}));
  EXPECT_TRUE(inst.at("N").Contains({I(2)}));
}

TEST(CInstanceTest, VarsAcrossTablesDeduplicated) {
  DatabaseSchema schema = testing::EdgeSchema();
  schema.AddRelation(RelationSchema("N", {Attribute{"x"}}));
  CInstance ci(schema);
  ci.at("E").AddRow({Cell(V(2)), Cell(V(0))});
  ci.at("N").AddRow({Cell(V(0))});
  std::vector<VarId> vars = ci.Vars();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0].id, 0);
  EXPECT_EQ(vars[1].id, 2);
  EXPECT_EQ(ci.VarUniverseSize(), 3u);
}

TEST(CInstanceTest, RemoveRows) {
  CInstance ci(testing::EdgeSchema());
  ci.at("E").AddRow({Cell(I(1)), Cell(I(2))});
  ci.at("E").AddRow({Cell(I(3)), Cell(I(4))});
  EXPECT_EQ(ci.TotalRows(), 2u);
  CInstance smaller = ci.RemoveRows({{0, 0}});
  EXPECT_EQ(smaller.TotalRows(), 1u);
  EXPECT_TRUE(std::holds_alternative<Value>(
      smaller.at("E").rows()[0].cells[0]));
  EXPECT_EQ(std::get<Value>(smaller.at("E").rows()[0].cells[0]), I(3));
}

TEST(CInstanceTest, AllRowPositions) {
  CInstance ci(testing::EdgeSchema());
  ci.at("E").AddRow({Cell(I(1)), Cell(I(2))});
  ci.at("E").AddRow({Cell(I(3)), Cell(I(4))});
  EXPECT_EQ(ci.AllRowPositions().size(), 2u);
}

TEST(CInstanceTest, FromInstanceIsGround) {
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), I(2)});
  CInstance ci = CInstance::FromInstance(db);
  EXPECT_TRUE(ci.IsGround());
  EXPECT_EQ(ci.TotalRows(), 1u);
}

class CInstanceDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Re-execute the binary for the death branch instead of forking it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(CInstanceDeathTest, UnknownRelationAbortsInBothAccessors) {
  CInstance ci(testing::EdgeSchema());
  const CInstance& read_only = ci;
  EXPECT_DEATH(read_only.at("F"), "unknown relation 'F'");
  EXPECT_DEATH(ci.at("F").AddRow({Cell(I(1)), Cell(I(2))}),
               "unknown relation 'F'");
  EXPECT_EQ(ci.TotalRows(), 0u);
}

}  // namespace
}  // namespace relcomp
