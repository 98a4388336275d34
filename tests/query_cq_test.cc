// Unit tests for conjunctive-query evaluation (joins, builtins, safety) and
// the tableau-query view used by the completeness characterizations.
#include <gtest/gtest.h>

#include "query/cq.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

Instance PathInstance() {
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), I(2)});
  db.AddTuple("E", {I(2), I(3)});
  db.AddTuple("E", {I(3), I(4)});
  return db;
}

TEST(CqEvalTest, SingleAtomScan) {
  ConjunctiveQuery q({CTerm(V(0)), CTerm(V(1))},
                     {RelAtom{"E", {V(0), V(1)}}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 3u);
}

TEST(CqEvalTest, JoinOnSharedVariable) {
  // Q(x, z) :- E(x, y), E(y, z): paths of length 2.
  ConjunctiveQuery q({CTerm(V(0)), CTerm(V(2))},
                     {RelAtom{"E", {V(0), V(1)}},
                      RelAtom{"E", {V(1), V(2)}}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains({I(1), I(3)}));
  EXPECT_TRUE(out.Contains({I(2), I(4)}));
}

TEST(CqEvalTest, ConstantInAtomFilters) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {I(2), V(0)}}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({I(3)}));
}

TEST(CqEvalTest, EqualityBuiltin) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0), V(1)}}},
                     {CondAtom{V(1), false, I(3)}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({I(2)}));
}

TEST(CqEvalTest, InequalityBuiltin) {
  // Distinct-endpoint pairs of edges sharing the source.
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), I(2)});
  db.AddTuple("E", {I(1), I(3)});
  ConjunctiveQuery q({CTerm(V(1)), CTerm(V(2))},
                     {RelAtom{"E", {V(0), V(1)}},
                      RelAtom{"E", {V(0), V(2)}}},
                     {CondAtom{V(1), true, V(2)}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(db));
  EXPECT_EQ(out.size(), 2u);  // (2,3) and (3,2)
}

TEST(CqEvalTest, ConstantHeadTerm) {
  ConjunctiveQuery q({CTerm(S("hit")), CTerm(V(0))},
                     {RelAtom{"E", {V(0), V(1)}}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(out.Contains({S("hit"), I(1)}));
}

TEST(CqEvalTest, BooleanQueryEmptyHead) {
  ConjunctiveQuery q({}, {RelAtom{"E", {I(1), I(2)}}});
  ASSERT_OK_AND_ASSIGN(yes, q.Eval(PathInstance()));
  EXPECT_EQ(yes.size(), 1u);  // {()}
  ConjunctiveQuery q2({}, {RelAtom{"E", {I(9), I(9)}}});
  ASSERT_OK_AND_ASSIGN(no, q2.Eval(PathInstance()));
  EXPECT_TRUE(no.empty());
}

TEST(CqEvalTest, SelfJoinSameTuple) {
  ConjunctiveQuery q({CTerm(V(0))},
                     {RelAtom{"E", {V(0), V(1)}},
                      RelAtom{"E", {V(0), V(1)}}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 3u);
}

TEST(CqEvalTest, EmptyRelationGivesEmptyAnswer) {
  Instance db(testing::EdgeSchema());
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0), V(1)}}});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(db));
  EXPECT_TRUE(out.empty());
}

TEST(CqEvalTest, UnknownRelationFails) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"Zap", {V(0)}}});
  Result<Relation> r = q.Eval(PathInstance());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CqEvalTest, ArityMismatchFails) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0)}}});
  Result<Relation> r = q.Eval(PathInstance());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CqEvalTest, UnsafeHeadFails) {
  ConjunctiveQuery q({CTerm(V(7))}, {RelAtom{"E", {V(0), V(1)}}});
  Result<Relation> r = q.Eval(PathInstance());
  EXPECT_FALSE(r.ok());
}

TEST(CqEvalTest, UnsafeBuiltinFails) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0), V(1)}}},
                     {CondAtom{V(9), true, I(0)}});
  Result<Relation> r = q.Eval(PathInstance());
  EXPECT_FALSE(r.ok());
}

TEST(CqTest, VarsAndConstantsCollection) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0), I(7)}}},
                     {CondAtom{V(0), true, S("a")}});
  EXPECT_EQ(q.Vars().size(), 1u);
  EXPECT_EQ(q.Constants().size(), 2u);
}

TEST(CqTest, InstantiateTableau) {
  ConjunctiveQuery q({CTerm(V(0))},
                     {RelAtom{"E", {V(0), V(1)}},
                      RelAtom{"E", {V(1), I(9)}}});
  Valuation nu;
  nu.Bind(V(0), I(5));
  nu.Bind(V(1), I(6));
  ASSERT_OK_AND_ASSIGN(inst, q.InstantiateTableau(nu, testing::EdgeSchema()));
  EXPECT_EQ(inst.TotalTuples(), 2u);
  EXPECT_TRUE(inst.at("E").Contains({I(5), I(6)}));
  EXPECT_TRUE(inst.at("E").Contains({I(6), I(9)}));
}

TEST(CqTest, InstantiateHeadRequiresBindings) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0), V(1)}}});
  Valuation nu;
  EXPECT_FALSE(q.InstantiateHead(nu).ok());
  nu.Bind(V(0), I(1));
  ASSERT_OK_AND_ASSIGN(head, q.InstantiateHead(nu));
  EXPECT_EQ(head, Tuple({I(1)}));
}

TEST(CqTest, BuiltinsSatisfiedChecks) {
  ConjunctiveQuery q({}, {RelAtom{"E", {V(0), V(1)}}},
                     {CondAtom{V(0), true, V(1)}});
  Valuation nu;
  nu.Bind(V(0), I(1));
  nu.Bind(V(1), I(1));
  ASSERT_OK_AND_ASSIGN(violated, q.BuiltinsSatisfied(nu));
  EXPECT_FALSE(violated);
  nu.Bind(V(1), I(2));
  ASSERT_OK_AND_ASSIGN(ok, q.BuiltinsSatisfied(nu));
  EXPECT_TRUE(ok);
}

TEST(CqTest, BuiltinsSatisfiableUnionsTheEqualities) {
  auto satisfiable = [](std::vector<CondAtom> builtins) {
    return ConjunctiveQuery({}, {RelAtom{"E", {V(0), V(1)}}},
                            std::move(builtins))
        .BuiltinsSatisfiable();
  };
  const bool kEq = false;
  const bool kNeq = true;
  EXPECT_TRUE(satisfiable({}));
  EXPECT_TRUE(satisfiable({{V(0), kEq, S("a")}, {V(0), kEq, S("a")}}));
  EXPECT_TRUE(satisfiable({{V(0), kNeq, V(1)}, {V(0), kEq, S("a")}}));
  EXPECT_TRUE(satisfiable({{S("a"), kEq, S("a")}}));
  EXPECT_TRUE(satisfiable({{I(1), kNeq, S("1")}}));
  // Two distinct constants in one class, directly or through variables.
  EXPECT_FALSE(satisfiable({{V(0), kEq, S("a")}, {V(0), kEq, S("b")}}));
  EXPECT_FALSE(satisfiable({{V(0), kEq, S("a")},
                            {V(1), kEq, V(0)},
                            {V(1), kEq, S("b")}}));
  EXPECT_FALSE(satisfiable({{V(0), kEq, I(1)}, {V(0), kEq, S("1")}}));
  EXPECT_FALSE(satisfiable({{S("a"), kEq, S("b")}}));
  // A ≠ inside one class.
  EXPECT_FALSE(satisfiable({{V(0), kNeq, V(0)}}));
  EXPECT_FALSE(satisfiable({{S("a"), kNeq, S("a")}}));
  EXPECT_FALSE(satisfiable(
      {{V(0), kEq, V(1)}, {V(1), kEq, V(2)}, {V(2), kNeq, V(0)}}));
  EXPECT_FALSE(satisfiable(
      {{V(0), kEq, S("a")}, {V(1), kEq, S("a")}, {V(0), kNeq, V(1)}}));
}

TEST(CqTest, ToStringIsReadable) {
  ConjunctiveQuery q({CTerm(V(0))}, {RelAtom{"E", {V(0), I(1)}}},
                     {CondAtom{V(0), true, I(2)}});
  std::string s = q.ToString();
  EXPECT_NE(s.find("E("), std::string::npos);
  EXPECT_NE(s.find("!="), std::string::npos);
}

}  // namespace
}  // namespace relcomp
