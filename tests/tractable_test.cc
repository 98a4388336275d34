// Tests for the Section 7 tractable-case wrappers.
#include <gtest/gtest.h>

#include "core/tractable.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::V;

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

TEST(TractableTest, RegimeAcceptsFewVariables) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  TractabilityCheck check = CheckDataComplexityRegime(fx.q, t, 4);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(TractableTest, RegimeRejectsManyVariables) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  for (int i = 0; i < 6; ++i) t.at("B").AddRow({Cell(V(i))});
  TractabilityCheck check = CheckDataComplexityRegime(fx.q, t, 4);
  EXPECT_FALSE(check.ok);
}

TEST(TractableTest, RegimeRejectsFo) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  FoQuery fo({}, FoFormula::Not(FoFormula::Atom({"B", {I(0)}})));
  TractabilityCheck check = CheckDataComplexityRegime(Query::Fo(fo), t, 4);
  EXPECT_FALSE(check.ok);
}

TEST(TractableTest, WrappersAgreeWithGeneralDeciders) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  t.at("B").AddRow({Cell(I(1))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(strong_t, RcdpStrongTractable(fx.q, t, prepared));
  ASSERT_OK_AND_ASSIGN(strong_g, RcdpStrong(fx.q, t, prepared));
  EXPECT_EQ(strong_t, strong_g);
  ASSERT_OK_AND_ASSIGN(weak_t, RcdpWeakTractable(fx.q, t, prepared));
  ASSERT_OK_AND_ASSIGN(weak_g, RcdpWeak(fx.q, t, prepared));
  EXPECT_EQ(weak_t, weak_g);
  ASSERT_OK_AND_ASSIGN(viable_t, RcdpViableTractable(fx.q, t, prepared));
  ASSERT_OK_AND_ASSIGN(viable_g, RcdpViable(fx.q, t, prepared));
  EXPECT_EQ(viable_t, viable_g);
  ASSERT_OK_AND_ASSIGN(minp_t, MinpStrongTractable(fx.q, t, prepared));
  ASSERT_OK_AND_ASSIGN(minp_g, MinpStrong(fx.q, t, prepared));
  EXPECT_EQ(minp_t, minp_g);
}

TEST(TractableTest, FpAllowedOnlyInWeakModel) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"B", {V(0)}}}, {}});
  p.set_output("T");
  Query fp = Query::Fp(p);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  EXPECT_FALSE(RcdpStrongTractable(fp, t, prepared).ok());
  EXPECT_TRUE(RcdpWeakTractable(fp, t, prepared).ok());
}

TEST(TractableTest, OutOfRegimeFailsLoudly) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  for (int i = 0; i < 6; ++i) t.at("B").AddRow({Cell(V(i))});
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  Result<bool> r = RcdpStrongTractable(fx.q, t, prepared, 4);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TractableTest, MinpWeakCqWrapper) {
  BoolFixture fx;
  CInstance empty(fx.setting.schema);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(min_t, MinpWeakCqTractable(fx.q, empty, prepared));
  ASSERT_OK_AND_ASSIGN(min_g, MinpWeakCq(fx.q, empty, prepared));
  EXPECT_EQ(min_t, min_g);
}

}  // namespace
}  // namespace relcomp
