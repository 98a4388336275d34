// Tests for the Section 3 analyses: consistency of c-instances and
// extensibility of ground instances (Prop 3.3), including the executable
// reduction from ∀∃3SAT cross-checked against the brute-force QBF oracle.
#include <gtest/gtest.h>

#include "core/consistency.h"
#include "reductions/prop33.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

TEST(ConsistencyTest, GroundInstanceSatisfyingCcsIsConsistent) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  CInstance t(setting.schema);
  t.at("E").AddRow({Cell(I(1)), Cell(I(2))});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, t));
  EXPECT_TRUE(ok);
}

TEST(ConsistencyTest, UnsatisfiableConditionMakesRowVanishNotInconsistent) {
  // A row whose condition can never hold just never materializes; the
  // c-instance is still consistent (Mod contains the world without it).
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  CInstance t(setting.schema);
  t.at("E").AddRow(CRow{{Cell(V(0)), Cell(I(1))},
                        Condition({CondAtom{V(0), true, V(0)}})});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, t));
  EXPECT_TRUE(ok);
}

TEST(ConsistencyTest, CcCanForceInconsistency) {
  // CC: every E tuple's first column must appear in empty master ⇒ no E
  // tuples allowed; a ground unconditional row makes Mod empty.
  PartiallyClosedSetting setting;
  setting.schema = testing::EdgeSchema();
  setting.master_schema.AddRelation(
      RelationSchema("Empty1", {Attribute{"w"}}));
  setting.dm = Instance(setting.master_schema);
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0), V(1)}}});
  setting.ccs.emplace_back("deny", std::move(q), "Empty1",
                           std::vector<int>{0});
  CInstance t(setting.schema);
  t.at("E").AddRow({Cell(I(1)), Cell(I(2))});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, t));
  EXPECT_FALSE(ok);
}

TEST(ConsistencyTest, ConditionCanRescueConsistency) {
  // Same denial CC, but the row is guarded by an unsatisfiable-for-all-
  // valuations condition? Use x = c with the CC denying only c: valuations
  // with x ≠ c drop the row and satisfy the CCs.
  PartiallyClosedSetting setting;
  setting.schema = testing::EdgeSchema();
  setting.master_schema.AddRelation(
      RelationSchema("Empty1", {Attribute{"w"}}));
  setting.dm = Instance(setting.master_schema);
  ConjunctiveQuery q({CTerm(V(10))}, {RelAtom{"E", {V(10), V(11)}}});
  setting.ccs.emplace_back("deny", std::move(q), "Empty1",
                           std::vector<int>{0});
  CInstance t(setting.schema);
  t.at("E").AddRow(CRow{{Cell(V(0)), Cell(I(2))},
                        Condition::VarEqConst(V(0), I(7))});
  Instance witness;
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, t, {}, nullptr, &witness));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(witness.Empty());  // the surviving worlds have no tuples
}

TEST(ConsistencyTest, WitnessWorldSatisfiesConditions) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  CInstance t(setting.schema);
  t.at("E").AddRow(CRow{{Cell(V(0)), Cell(I(5))},
                        Condition::VarNeqConst(V(0), I(5))});
  Instance witness;
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, t, {}, nullptr, &witness));
  EXPECT_TRUE(ok);
  for (const Tuple& tup : witness.at("E").rows()) {
    EXPECT_NE(tup[0], I(5));
  }
}

TEST(ExtensibilityTest, OpenWorldIsExtensible) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  Instance db(setting.schema);
  db.AddTuple("E", {I(1), I(2)});
  ExtensionWitness witness;
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(ok, IsExtensible(prepared, db, {}, nullptr, &witness));
  EXPECT_TRUE(ok);
  EXPECT_EQ(witness.relation, "E");
  EXPECT_FALSE(db.at("E").Contains(witness.tuple));
}

TEST(ExtensibilityTest, FullyBoundedInstanceNotExtensible) {
  // Boolean unary relation bounded by a master copy that it already equals.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(
      RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
  setting.master_schema.AddRelation(
      RelationSchema("Bm", {Attribute{"x", Domain::Boolean()}}));
  setting.dm = Instance(setting.master_schema);
  setting.dm.AddTuple("Bm", {I(0)});
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"B", {V(0)}}});
  setting.ccs.emplace_back("bound", std::move(q), "Bm", std::vector<int>{0});
  Instance db(setting.schema);
  db.AddTuple("B", {I(0)});
  const PreparedSetting prepared = testing::MustPrepare(setting);
  ASSERT_OK_AND_ASSIGN(ok, IsExtensible(prepared, db));
  EXPECT_FALSE(ok);  // (1) violates the bound; (0) already present
}

TEST(ConsistencyTest, BudgetExhaustionSurfaces) {
  PartiallyClosedSetting setting = testing::OpenSetting(testing::EdgeSchema());
  CInstance t(setting.schema);
  // Make the only worlds CC-violating so the enumerator keeps going, with a
  // tiny budget.
  setting.master_schema.AddRelation(
      RelationSchema("Empty1", {Attribute{"w"}}));
  setting.dm = Instance(setting.master_schema);
  ConjunctiveQuery q({CTerm(V(10))}, {RelAtom{"E", {V(10), V(11)}}});
  setting.ccs.emplace_back("deny", std::move(q), "Empty1",
                           std::vector<int>{0});
  t.at("E").AddRow({Cell(V(0)), Cell(V(1))});
  SearchOptions options;
  options.max_steps = 3;
  const PreparedSetting prepared = testing::MustPrepare(setting);
  Result<bool> r = IsConsistent(prepared, t, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Prop 3.3 reductions, swept against the brute-force QBF oracle.
// ---------------------------------------------------------------------------

class Prop33Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop33Sweep, ConsistencyMatchesQbfOracle) {
  Qbf qbf = MakeForallExists(2, 2, RandomCnf3(4, 3, GetParam()));
  GadgetProblem gadget = BuildConsistencyGadget(qbf);
  EXPECT_OK(gadget.setting.Validate());
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(consistent, IsConsistent(prepared, gadget.cinstance));
  // Claim: ϕ is false ⇔ Mod(T, Dm, V) ≠ ∅.
  EXPECT_EQ(consistent, !qbf.Eval()) << qbf.matrix.ToString();
}

TEST_P(Prop33Sweep, ExtensibilityMatchesQbfOracle) {
  Qbf qbf = MakeForallExists(2, 2, RandomCnf3(4, 3, GetParam()));
  GadgetProblem gadget = BuildExtensibilityGadget(qbf);
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(extensible, IsExtensible(prepared, gadget.ground));
  // Claim: ϕ is true ⇔ Ext(I0, Dm, V) = ∅.
  EXPECT_EQ(!extensible, qbf.Eval()) << qbf.matrix.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop33Sweep,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace relcomp
