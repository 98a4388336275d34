// Tests for the remaining executable reductions: SUCCINCT-TAUT → RCDPʷ(FP)
// (Thm 5.1(2)) and 2-head DFA → FP satisfiability under FDs (Lemma 4.6).
#include <gtest/gtest.h>

#include "core/rcdp.h"
#include "reductions/lemma46_dfa.h"
#include "reductions/thm51_fp.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::V;

TEST(Thm51FpTest, TautologyCircuitIsWeaklyComplete) {
  // x0 | !x0.
  Circuit c;
  c.AddGate({GateType::kIn, -1, -1});
  c.AddGate({GateType::kNot, 0, -1});
  c.AddGate({GateType::kOr, 0, 1});
  ASSERT_TRUE(c.IsTautology());
  GadgetProblem gadget = BuildSuccinctTautGadget(c);
  EXPECT_OK(gadget.setting.Validate());
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      weak, RcdpWeakGround(gadget.query, gadget.ground, prepared));
  EXPECT_TRUE(weak);
}

TEST(Thm51FpTest, NonTautologyIsNotWeaklyComplete) {
  // Just x0.
  Circuit c;
  c.AddGate({GateType::kIn, -1, -1});
  ASSERT_FALSE(c.IsTautology());
  GadgetProblem gadget = BuildSuccinctTautGadget(c);
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      weak, RcdpWeakGround(gadget.query, gadget.ground, prepared));
  EXPECT_FALSE(weak);
}

TEST(Thm51FpTest, AndOfInputsNotTaut) {
  Circuit c;
  c.AddGate({GateType::kIn, -1, -1});
  c.AddGate({GateType::kIn, -1, -1});
  c.AddGate({GateType::kAnd, 0, 1});
  GadgetProblem gadget = BuildSuccinctTautGadget(c);
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      weak, RcdpWeakGround(gadget.query, gadget.ground, prepared));
  EXPECT_FALSE(weak);
}

class CircuitSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CircuitSweep, WeakCompletenessMatchesTautologyOracle) {
  bool force_taut = GetParam() % 2 == 0;
  Circuit c = RandomCircuit(2, 4, GetParam() * 31 + 5, force_taut);
  GadgetProblem gadget = BuildSuccinctTautGadget(c);
  const PreparedSetting prepared = testing::MustPrepare(gadget.setting);
  ASSERT_OK_AND_ASSIGN(
      weak, RcdpWeakGround(gadget.query, gadget.ground, prepared));
  EXPECT_EQ(weak, c.IsTautology()) << c.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitSweep,
                         ::testing::Range<uint64_t>(0, 10));

TEST(Thm51FpTest, QueryEvaluatesCircuitOnBaseWorld) {
  // On the base world (A0 = 1 only), the FP query returns exactly the
  // satisfying inputs of the circuit.
  Circuit c;
  c.AddGate({GateType::kIn, -1, -1});
  c.AddGate({GateType::kIn, -1, -1});
  c.AddGate({GateType::kOr, 0, 1});
  GadgetProblem gadget = BuildSuccinctTautGadget(c);
  ASSERT_OK_AND_ASSIGN(out, gadget.query.Eval(gadget.ground));
  EXPECT_EQ(out.size(), 3u);  // 01, 10, 11
  EXPECT_FALSE(out.Contains({I(0), I(0)}));
}

// ---------------------------------------------------------------------------
// Lemma 4.6: the FP simulation of a 2-head DFA.
// ---------------------------------------------------------------------------

TwoHeadDfa FirstSymbolOneDfa() {
  // Accepts words whose first symbol is 1 (both heads start on it).
  TwoHeadDfa dfa(2, 0, 1);
  dfa.AddTransition(0, HeadSymbol::kOne, HeadSymbol::kOne, {1, 1, 0});
  return dfa;
}

TEST(Lemma46Test, WordEncodingSatisfiesFds) {
  TwoHeadDfa dfa = FirstSymbolOneDfa();
  GadgetProblem gadget = BuildDfaSatisfiabilityGadget(dfa);
  Instance word = EncodeWord(gadget.setting.schema, "101");
  ASSERT_OK_AND_ASSIGN(
      closed, SatisfiesCCs(word, gadget.setting.dm, gadget.setting.ccs));
  EXPECT_TRUE(closed);
}

TEST(Lemma46Test, FpSimulationMatchesAutomaton) {
  TwoHeadDfa dfa = FirstSymbolOneDfa();
  GadgetProblem gadget = BuildDfaSatisfiabilityGadget(dfa);
  for (const char* word : {"1", "10", "0", "01", "11", "00"}) {
    Instance encoded = EncodeWord(gadget.setting.schema, word);
    ASSERT_OK_AND_ASSIGN(accept, gadget.query.Eval(encoded));
    EXPECT_EQ(!accept.empty(), dfa.Accepts(word)) << "word " << word;
  }
}

TEST(Lemma46Test, TwoHeadComparisonAutomaton) {
  // Accepts words starting with "10": advance head 2 over the first symbol,
  // then require head1 = 1, head2 = 0 at offsets (0, 1).
  TwoHeadDfa dfa(3, 0, 2);
  dfa.AddTransition(0, HeadSymbol::kZero, HeadSymbol::kZero, {1, 0, 1});
  dfa.AddTransition(0, HeadSymbol::kOne, HeadSymbol::kOne, {1, 0, 1});
  dfa.AddTransition(1, HeadSymbol::kOne, HeadSymbol::kZero, {2, 1, 1});
  GadgetProblem gadget = BuildDfaSatisfiabilityGadget(dfa);
  for (const char* word : {"10", "100", "11", "01", "1"}) {
    Instance encoded = EncodeWord(gadget.setting.schema, word);
    ASSERT_OK_AND_ASSIGN(accept, gadget.query.Eval(encoded));
    EXPECT_EQ(!accept.empty(), dfa.Accepts(word)) << "word " << word;
  }
}

TEST(Lemma46Test, EmptinessUpToBoundViaFp) {
  // The automaton accepting nothing: FP finds no accepting instance among
  // encodings of words up to length 3.
  TwoHeadDfa dfa(2, 0, 1);  // no transitions
  GadgetProblem gadget = BuildDfaSatisfiabilityGadget(dfa);
  EXPECT_TRUE(dfa.EmptyUpTo(3));
  for (int len = 0; len <= 3; ++len) {
    for (uint64_t bits = 0; bits < (uint64_t{1} << len); ++bits) {
      std::string word;
      for (int i = 0; i < len; ++i) word += ((bits >> i) & 1) ? '1' : '0';
      Instance encoded = EncodeWord(gadget.setting.schema, word);
      ASSERT_OK_AND_ASSIGN(accept, gadget.query.Eval(encoded));
      EXPECT_TRUE(accept.empty());
    }
  }
}

TEST(Lemma46Test, FdViolatingInstanceDetected) {
  TwoHeadDfa dfa = FirstSymbolOneDfa();
  GadgetProblem gadget = BuildDfaSatisfiabilityGadget(dfa);
  Instance bad = EncodeWord(gadget.setting.schema, "10");
  // Two letters at position 0 violates A → V on P.
  bad.AddTuple("P", {I(0), I(0)});
  ASSERT_OK_AND_ASSIGN(
      closed, SatisfiesCCs(bad, gadget.setting.dm, gadget.setting.ccs));
  EXPECT_FALSE(closed);
}

}  // namespace
}  // namespace relcomp
