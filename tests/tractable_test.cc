// Tests for the Section 7 regime check; the general deciders decide the
// regime.
#include <gtest/gtest.h>

#include "core/rcdp.h"
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

TEST(TractableTest, FpAllowedOnlyInWeakModel) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  FpProgram p;
  p.AddRule(FpRule{{"T", {V(0)}}, {{"B", {V(0)}}}, {}});
  p.set_output("T");
  Query fp = Query::Fp(p);
  EXPECT_TRUE(CheckDataComplexityRegime(fp, t, 4).ok);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  EXPECT_EQ(RcdpStrong(fp, t, prepared).status().code(),
            StatusCode::kUndecidable);
  EXPECT_TRUE(RcdpWeak(fp, t, prepared).ok());
}

}  // namespace
}  // namespace relcomp
