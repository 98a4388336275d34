// The paper's running example as executable assertions: Fig. 1 c-table,
// Examples 1.1, 2.1–2.4.
#include <gtest/gtest.h>

#include "core/consistency.h"
#include "core/minp.h"
#include "core/rcdp.h"
#include "query/printer.h"
#include "reductions/examples_fig1.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;

TEST(Fig1Test, SettingsValidate) {
  PatientsFixture fx = MakePatientsFixture();
  EXPECT_OK(fx.setting.Validate());
  EXPECT_OK(fx.acquisition.Validate());
}

TEST(Fig1Test, CTableIsConsistent) {
  PatientsFixture fx = MakePatientsFixture();
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, fx.ctable));
  EXPECT_TRUE(ok);
}

TEST(Fig1Test, WorldsForceBobOrJohnForT2) {
  // The CC pins t2's (name, yob) to the master rows for NHS 915-15-356.
  PatientsFixture fx = MakePatientsFixture();
  Instance witness;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(ok,
                       IsConsistent(prepared, fx.ctable, {}, nullptr,
                                    &witness));
  ASSERT_TRUE(ok);
  bool found = false;
  for (const Tuple& t : witness.at("MVisit").rows()) {
    if (t[0] == S("915-15-356")) {
      found = true;
      EXPECT_TRUE(t[1] == S("John") || t[1] == S("Bob"));
      EXPECT_EQ(t[3], I(2000));  // z ≠ 2001 and master forces 2000
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fig1Test, Example23_Q1StronglyComplete) {
  PatientsFixture fx = MakePatientsFixture();
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(fx.q1, fx.ctable, prepared));
  EXPECT_TRUE(strong);
}

TEST(Fig1Test, Example23_Q1AnswerIsJohnInEveryWorld) {
  PatientsFixture fx = MakePatientsFixture();
  Instance world;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, fx.ctable, {}, nullptr,
                                        &world));
  ASSERT_TRUE(ok);
  ASSERT_OK_AND_ASSIGN(answers, fx.q1.Eval(world));
  EXPECT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers.Contains({S("John")}));
}

TEST(Fig1Test, Example23_Q4NotStronglyComplete) {
  PatientsFixture fx = MakePatientsFixture();
  CompletenessWitness witness;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(fx.q4, fx.ctable, prepared, {},
                                          nullptr, &witness));
  EXPECT_FALSE(strong);
  // The witness world instantiated t2 as John; the extension adds Bob.
  EXPECT_EQ(witness.answer, Tuple({S("Bob")}));
}

TEST(Fig1Test, Example23_Q4ViablyComplete) {
  PatientsFixture fx = MakePatientsFixture();
  Instance world;
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(viable, RcdpViable(fx.q4, fx.ctable, prepared, {},
                                          nullptr, &world));
  EXPECT_TRUE(viable);
  // Any world that keeps t2 is complete: once t2's name is fixed, the FD
  // NHS → name blocks the other candidate name for NHS 915-15-356, so the
  // answer cannot change. (The strong-model counterexample is the world
  // where t2's condition z ≠ 2001 drops the row entirely.)
  ASSERT_OK_AND_ASSIGN(answers, fx.q4.Eval(world));
  EXPECT_TRUE(answers.Contains({S("John")}));
  bool keeps_t2 = false;
  for (const Tuple& t : world.at("MVisit").rows()) {
    if (t[0] == S("915-15-356")) keeps_t2 = true;
  }
  EXPECT_TRUE(keeps_t2);
}

TEST(Fig1Test, Example23_Q4WeaklyComplete) {
  PatientsFixture fx = MakePatientsFixture();
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(fx.q4, fx.ctable, prepared));
  EXPECT_TRUE(weak);
}

TEST(Fig1Test, Example22_Q2IncompleteOnGroundD) {
  PatientsFixture fx = MakePatientsFixture();
  const PreparedSetting acquisition = testing::MustPrepare(fx.acquisition);
  ASSERT_OK_AND_ASSIGN(
      complete, RcdpStrongGround(fx.q2, fx.ground, acquisition));
  EXPECT_FALSE(complete);
}

TEST(Fig1Test, Example22_OneTupleMakesQ2Complete) {
  PatientsFixture fx = MakePatientsFixture();
  Instance extended = fx.ground;
  extended.AddTuple("MVisit",
                    {S("915-15-321"), S("Alice"), S("EDI"), I(2000), S("F"),
                     S("15/03/2015"), S("Flu"), S("01")});
  const PreparedSetting acquisition = testing::MustPrepare(fx.acquisition);
  ASSERT_OK_AND_ASSIGN(
      complete, RcdpStrongGround(fx.q2, extended, acquisition));
  EXPECT_TRUE(complete);
}

TEST(Fig1Test, Example22_Q3NeverComplete) {
  PatientsFixture fx = MakePatientsFixture();
  const PreparedSetting acquisition = testing::MustPrepare(fx.acquisition);
  ASSERT_OK_AND_ASSIGN(
      complete, RcdpStrongGround(fx.q3, fx.ground, acquisition));
  EXPECT_FALSE(complete);
  // Even after adding the diabetic London patients the paper mentions, the
  // open world keeps Q3 incomplete.
  Instance extended = fx.ground;
  extended.AddTuple("MVisit",
                    {S("915-15-400"), S("Zoe"), S("LON"), I(2000), S("F"),
                     S("15/03/2015"), S("Diabetes"), S("02")});
  ASSERT_OK_AND_ASSIGN(still, RcdpStrongGround(fx.q3, extended, acquisition));
  EXPECT_FALSE(still);
}

TEST(Fig1Test, Example24_T1AloneMinimalForQ1) {
  // Example 2.4: T is strongly complete for Q1 but not minimal — keeping
  // only t1 yields a smaller complete database.
  PatientsFixture fx = MakePatientsFixture();
  CInstance t1_only(fx.setting.schema);
  t1_only.at("MVisit").AddRow(fx.ctable.at("MVisit").rows()[0]);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(fx.q1, t1_only, prepared));
  EXPECT_TRUE(strong);
}

TEST(Fig1Test, FdCcBlocksConflictingNames) {
  // The FD NHS → name (Example 2.1) rejects a second name for NHS -335.
  PatientsFixture fx = MakePatientsFixture();
  Instance bad = fx.ground;
  bad.AddTuple("MVisit", {S("915-15-335"), S("Impostor"), S("LON"), I(1999),
                          S("M"), S("16/03/2015"), S("Flu"), S("03")});
  ASSERT_OK_AND_ASSIGN(closed,
                       SatisfiesCCs(bad, fx.setting.dm, fx.setting.ccs));
  EXPECT_FALSE(closed);
}

TEST(Fig1Test, PrinterRendersCTableWithConditions) {
  PatientsFixture fx = MakePatientsFixture();
  std::string rendered = FormatCTable(fx.ctable.at("MVisit"));
  EXPECT_NE(rendered.find("cond"), std::string::npos);
  EXPECT_NE(rendered.find("!="), std::string::npos);
  EXPECT_NE(rendered.find("915-15-335"), std::string::npos);
}

TEST(Fig1Test, ScaledFixtureKeepsClaims) {
  PatientsFixture fx = MakeScaledPatientsFixture(4, 1);
  const PreparedSetting prepared = testing::MustPrepare(fx.setting);
  ASSERT_OK_AND_ASSIGN(ok, IsConsistent(prepared, fx.ctable));
  EXPECT_TRUE(ok);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(fx.q1, fx.ctable, prepared));
  EXPECT_TRUE(strong);
}

}  // namespace
}  // namespace relcomp
