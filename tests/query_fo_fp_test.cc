// Tests for the FO active-domain evaluator, ∃FO⁺ → UCQ conversion, and the
// inflationary-fixpoint FP evaluator.
#include <gtest/gtest.h>

#include "query/fo.h"
#include "query/fp.h"
#include "query/query.h"
#include "query/ucq.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::V;

Instance PathInstance() {
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), I(2)});
  db.AddTuple("E", {I(2), I(3)});
  db.AddTuple("E", {I(3), I(4)});
  return db;
}

TEST(FoEvalTest, ExistentialAtom) {
  // Q(x) := exists y E(x, y).
  FoQuery q({V(0)}, FoFormula::Exists({V(1)},
                                      FoFormula::Atom({"E", {V(0), V(1)}})));
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(out.Contains({I(1)}));
  EXPECT_FALSE(out.Contains({I(4)}));
}

TEST(FoEvalTest, NegationSinkNodes) {
  // Q(x) := (exists y E(y, x)) & !(exists z E(x, z)): sinks.
  FoPtr has_in =
      FoFormula::Exists({V(1)}, FoFormula::Atom({"E", {V(1), V(0)}}));
  FoPtr has_out =
      FoFormula::Exists({V(2)}, FoFormula::Atom({"E", {V(0), V(2)}}));
  FoQuery q({V(0)}, FoFormula::And({has_in, FoFormula::Not(has_out)}));
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({I(4)}));
}

TEST(FoEvalTest, UniversalQuantifier) {
  // Boolean: forall x (exists y E(x, y) | exists y E(y, x)).
  FoPtr some_edge = FoFormula::Or(
      {FoFormula::Exists({V(1)}, FoFormula::Atom({"E", {V(0), V(1)}})),
       FoFormula::Exists({V(1)}, FoFormula::Atom({"E", {V(1), V(0)}}))});
  FoQuery q({}, FoFormula::Forall({V(0)}, some_edge));
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 1u);  // true: every active-domain node touches an edge
}

TEST(FoEvalTest, UniversalCanFail) {
  // forall x exists y E(x, y) is false (node 4 has no successor).
  FoQuery q({}, FoFormula::Forall(
                    {V(0)}, FoFormula::Exists(
                                {V(1)}, FoFormula::Atom({"E", {V(0), V(1)}}))));
  ASSERT_OK_AND_ASSIGN(out, q.Eval(PathInstance()));
  EXPECT_TRUE(out.empty());
}

TEST(FoEvalTest, EqualityAndInequality) {
  // Q(x) := exists y (E(x, y) & x != y).
  FoQuery q({V(0)},
            FoFormula::Exists(
                {V(1)}, FoFormula::And({FoFormula::Atom({"E", {V(0), V(1)}}),
                                        FoFormula::Neq(V(0), V(1))})));
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), I(1)});
  db.AddTuple("E", {I(2), I(3)});
  ASSERT_OK_AND_ASSIGN(out, q.Eval(db));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({I(2)}));
}

TEST(FoEvalTest, ExtraDomainWidensQuantifiers) {
  // Q() := exists x !(exists y E(x, y)) & !(exists y E(y, x)): an isolated
  // value — only exists if the domain has a value outside the edges.
  FoPtr isolated = FoFormula::And(
      {FoFormula::Not(FoFormula::Exists({V(1)},
                                        FoFormula::Atom({"E", {V(0), V(1)}}))),
       FoFormula::Not(FoFormula::Exists(
           {V(1)}, FoFormula::Atom({"E", {V(1), V(0)}})))});
  FoQuery q({}, FoFormula::Exists({V(0)}, isolated));
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), I(2)});
  ASSERT_OK_AND_ASSIGN(no, q.Eval(db));
  EXPECT_TRUE(no.empty());
  ASSERT_OK_AND_ASSIGN(yes, q.Eval(db, {I(99)}));
  EXPECT_EQ(yes.size(), 1u);
}

TEST(FoTest, ExistentialPositiveDetection) {
  FoPtr pos = FoFormula::Exists(
      {V(0)}, FoFormula::Or({FoFormula::Atom({"E", {V(0), V(0)}}),
                             FoFormula::Neq(V(0), I(1))}));
  EXPECT_TRUE(pos->IsExistentialPositive());
  EXPECT_FALSE(FoFormula::Not(pos)->IsExistentialPositive());
  EXPECT_FALSE(FoFormula::Forall({V(0)}, pos)->IsExistentialPositive());
}

TEST(FoTest, QueryWrapperClassifiesLanguage) {
  FoQuery pos({V(0)}, FoFormula::Atom({"E", {V(0), V(0)}}));
  EXPECT_EQ(Query::Fo(pos).language(), QueryLanguage::kEFOPlus);
  FoQuery neg({V(0)}, FoFormula::Not(FoFormula::Atom({"E", {V(0), V(0)}})));
  EXPECT_EQ(Query::Fo(neg).language(), QueryLanguage::kFO);
  EXPECT_FALSE(Query::Fo(neg).IsMonotone());
}

TEST(FoToUcqTest, DisjunctionSplits) {
  // Q(x) := E(x, 1) | E(x, 2) — two disjuncts.
  FoQuery q({V(0)}, FoFormula::Or({FoFormula::Atom({"E", {V(0), I(1)}}),
                                   FoFormula::Atom({"E", {V(0), I(2)}})}));
  ASSERT_OK_AND_ASSIGN(ucq, q.ToUcq());
  EXPECT_EQ(ucq.disjuncts().size(), 2u);
}

TEST(FoToUcqTest, ConversionPreservesAnswers) {
  // Q(x) := exists y (E(x, y) & (E(y, 3) | y = 2)).
  FoPtr inner = FoFormula::Or({FoFormula::Atom({"E", {V(1), I(3)}}),
                               FoFormula::Eq(V(1), I(2))});
  FoQuery q({V(0)},
            FoFormula::Exists({V(1)},
                              FoFormula::And(
                                  {FoFormula::Atom({"E", {V(0), V(1)}}),
                                   inner})));
  Instance db = PathInstance();
  ASSERT_OK_AND_ASSIGN(direct, q.Eval(db));
  ASSERT_OK_AND_ASSIGN(ucq, q.ToUcq());
  ASSERT_OK_AND_ASSIGN(via_ucq, ucq.Eval(db));
  EXPECT_EQ(direct, via_ucq);
}

TEST(FoToUcqTest, SiblingScopesGetFreshVariables) {
  // (exists y E(x, y)) & (exists y E(y, x)) — the two `y`s are distinct.
  FoPtr left = FoFormula::Exists({V(1)}, FoFormula::Atom({"E", {V(0), V(1)}}));
  FoPtr right = FoFormula::Exists({V(1)}, FoFormula::Atom({"E", {V(1), V(0)}}));
  FoQuery q({V(0)}, FoFormula::And({left, right}));
  Instance db = PathInstance();
  ASSERT_OK_AND_ASSIGN(direct, q.Eval(db));
  ASSERT_OK_AND_ASSIGN(ucq, q.ToUcq());
  ASSERT_OK_AND_ASSIGN(via_ucq, ucq.Eval(db));
  EXPECT_EQ(direct, via_ucq);
  EXPECT_EQ(direct.size(), 2u);  // nodes 2 and 3
}

TEST(FoToUcqTest, NonPositiveFails) {
  FoQuery q({}, FoFormula::Not(FoFormula::Atom({"E", {I(1), I(1)}})));
  EXPECT_FALSE(q.ToUcq().ok());
}

TEST(UcqTest, UnionSemanticsAndValidation) {
  UnionQuery ucq;
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(V(0))},
                                   {RelAtom{"E", {V(0), I(2)}}}));
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(V(0))},
                                   {RelAtom{"E", {I(2), V(0)}}}));
  ASSERT_OK_AND_ASSIGN(out, ucq.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 2u);  // {1} ∪ {3}
  EXPECT_OK(ucq.Validate(testing::EdgeSchema()));
}

TEST(UcqTest, MismatchedAritiesRejected) {
  UnionQuery ucq;
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(V(0))},
                                   {RelAtom{"E", {V(0), V(1)}}}));
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(V(0)), CTerm(V(1))},
                                   {RelAtom{"E", {V(0), V(1)}}}));
  EXPECT_FALSE(ucq.Validate(testing::EdgeSchema()).ok());
}

TEST(FpEvalTest, TransitiveClosure) {
  FpProgram tc;
  tc.AddRule(FpRule{{"T", {V(0), V(1)}}, {{"E", {V(0), V(1)}}}, {}});
  tc.AddRule(FpRule{{"T", {V(0), V(2)}},
                    {{"T", {V(0), V(1)}}, {"E", {V(1), V(2)}}},
                    {}});
  tc.set_output("T");
  ASSERT_OK_AND_ASSIGN(out, tc.Eval(PathInstance()));
  EXPECT_EQ(out.size(), 6u);  // all i < j pairs on the 4-path
  EXPECT_TRUE(out.Contains({I(1), I(4)}));
}

TEST(FpEvalTest, BuiltinsInRuleBodies) {
  // Reachable-by-nontrivial-step: T(x,y) ← E(x,y), x ≠ y.
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0), V(1)}},
                   {{"E", {V(0), V(1)}}},
                   {CondAtom{V(0), true, V(1)}}});
  p.set_output("T");
  Instance db(testing::EdgeSchema());
  db.AddTuple("E", {I(1), I(1)});
  db.AddTuple("E", {I(1), I(2)});
  ASSERT_OK_AND_ASSIGN(out, p.Eval(db));
  EXPECT_EQ(out.size(), 1u);
}

TEST(FpEvalTest, EmptyEdbFixpointIsEmpty) {
  FpProgram tc;
  tc.AddRule(FpRule{{"T", {V(0), V(1)}}, {{"E", {V(0), V(1)}}}, {}});
  tc.set_output("T");
  Instance db(testing::EdgeSchema());
  ASSERT_OK_AND_ASSIGN(out, tc.Eval(db));
  EXPECT_TRUE(out.empty());
}

TEST(FpEvalTest, IdbEdbNameCollisionRejected) {
  FpProgram p;
  p.AddRule(FpRule{{"E", {V(0), V(1)}}, {{"E", {V(0), V(1)}}}, {}});
  p.set_output("E");
  EXPECT_FALSE(p.Eval(PathInstance()).ok());
}

TEST(FpEvalTest, UnsafeRuleRejected) {
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0), V(9)}}, {{"E", {V(0), V(1)}}}, {}});
  p.set_output("T");
  EXPECT_FALSE(p.Eval(PathInstance()).ok());
}

TEST(FpEvalTest, MissingOutputRejected) {
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"E", {V(0), V(1)}}}, {}});
  p.set_output("Zap");
  EXPECT_FALSE(p.Eval(PathInstance()).ok());
}

TEST(FpEvalTest, MonotoneUnderExtension) {
  FpProgram tc;
  tc.AddRule(FpRule{{"T", {V(0), V(1)}}, {{"E", {V(0), V(1)}}}, {}});
  tc.AddRule(FpRule{{"T", {V(0), V(2)}},
                    {{"T", {V(0), V(1)}}, {"E", {V(1), V(2)}}},
                    {}});
  tc.set_output("T");
  Instance small = PathInstance();
  Instance big = small;
  big.AddTuple("E", {I(4), I(5)});
  ASSERT_OK_AND_ASSIGN(small_out, tc.Eval(small));
  ASSERT_OK_AND_ASSIGN(big_out, tc.Eval(big));
  EXPECT_TRUE(small_out.IsSubsetOf(big_out));
}

TEST(QueryWrapperTest, DisjunctsPerLanguage) {
  ConjunctiveQuery cq({CTerm(V(0))}, {RelAtom{"E", {V(0), V(1)}}});
  EXPECT_EQ(Query::Cq(cq).Disjuncts()->size(), 1u);
  UnionQuery ucq({cq, cq});
  EXPECT_EQ(Query::Ucq(ucq).Disjuncts()->size(), 2u);
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"E", {V(0), V(1)}}}, {}});
  p.set_output("T");
  EXPECT_FALSE(Query::Fp(p).Disjuncts().ok());
}

TEST(QueryWrapperTest, MaxVarId) {
  ConjunctiveQuery cq({CTerm(V(3))}, {RelAtom{"E", {V(3), V(7)}}});
  EXPECT_EQ(Query::Cq(cq).MaxVarId(), 7);
}

}  // namespace
}  // namespace relcomp
