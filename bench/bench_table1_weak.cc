// Experiment T1-W (Table I, weak-model row):
//   RCDPʷ  — Πp3-complete for CQ/UCQ/∃FO⁺ (Thm 5.1(3) gadget family),
//            coNEXPTIME-complete for FP (SUCCINCT-TAUT circuits, Thm 5.1(2))
//   RCQPʷ  — O(1) for every monotone language (Theorem 5.4)
//   MINPʷ  — coDP-complete for CQ vs Πp4-complete for UCQ/∃FO⁺ (Thm 5.6):
//            the CQ dichotomy stays flat while subset-removal explodes.
#include <benchmark/benchmark.h>

#include "core/minp.h"
#include "core/rcdp.h"
#include "core/rcqp.h"
#include "reductions/thm51_fp.h"
#include "reductions/thm51_rcdpw.h"
#include "reductions/thm56_minpw.h"

namespace relcomp {
namespace {

SearchOptions BigBudget() {
  SearchOptions o;
  o.max_steps = 1ull << 42;
  return o;
}

void BM_RcdpWeak_Sigma3Gadget(benchmark::State& state) {
  int ny = static_cast<int>(state.range(0));
  Qbf qbf = MakeExistsForallExists(1, ny, 1, RandomCnf3(ny + 2, 2, 13));
  GadgetProblem gadget = BuildRcdpWeakGadget(qbf);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    SearchStats stats;
    auto r = RcdpWeak(gadget.query, CInstance::FromInstance(gadget.ground),
                      *prepared, BigBudget(), &stats);
    benchmark::DoNotOptimize(r);
    state.counters["extensions"] = static_cast<double>(stats.extensions);
  }
}
BENCHMARK(BM_RcdpWeak_Sigma3Gadget)->DenseRange(1, 4, 1);

void BM_RcdpWeak_FpCircuit(benchmark::State& state) {
  // SUCCINCT-TAUT: the FP query evaluates the circuit on all 2^n inputs.
  int inputs = static_cast<int>(state.range(0));
  Circuit c = RandomCircuit(inputs, 5, 17, /*force_taut=*/true);
  GadgetProblem gadget = BuildSuccinctTautGadget(c);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpWeak(gadget.query, CInstance::FromInstance(gadget.ground),
                      *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RcdpWeak_FpCircuit)->DenseRange(1, 5, 1);

void BM_RcqpWeak_ConstantTime(benchmark::State& state) {
  // O(1) regardless of the query size (Theorem 5.4).
  int size = static_cast<int>(state.range(0));
  UnionQuery ucq;
  for (int i = 0; i < size; ++i) {
    ucq.AddDisjunct(ConjunctiveQuery(
        {CTerm(VarId{0})}, {RelAtom{"E", {VarId{0}, Value::Int(i)}}}));
  }
  Query q = Query::Ucq(ucq);
  for (auto _ : state) {
    auto r = RcqpWeak(q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RcqpWeak_ConstantTime)->Range(1, 4096);

void BM_MinpWeak_CqDichotomy(benchmark::State& state) {
  // Lemma 5.7: the coDP decision stays cheap as the SAT-UNSAT instance
  // grows — one empty-instance weak check plus a singleton test.
  int n = static_cast<int>(state.range(0));
  GadgetProblem gadget = BuildSatUnsatGadget(RandomCnf3(n, 2, 19),
                                             RandomCnf3(n, 2, 23), n);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = MinpWeakCq(gadget.query, gadget.cinstance, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MinpWeak_CqDichotomy)->DenseRange(2, 5, 1);

void BM_MinpWeak_SubsetRemoval(benchmark::State& state) {
  // The general Πp4-style algorithm: 2^rows weak re-checks.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "B", {Attribute{"x", Domain::Boolean()}, Attribute{"y",
                                                         Domain::Boolean()}}));
  setting.master_schema.AddRelation(RelationSchema(
      "Bm", {Attribute{"x", Domain::Boolean()},
             Attribute{"y", Domain::Boolean()}}));
  setting.dm = Instance(setting.master_schema);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      setting.dm.AddTuple("Bm", {Value::Int(a), Value::Int(b)});
    }
  }
  ConjunctiveQuery cc_q({CTerm(VarId{0}), CTerm(VarId{1})},
                        {RelAtom{"B", {VarId{0}, VarId{1}}}});
  setting.ccs.emplace_back("bound", std::move(cc_q), "Bm",
                           std::vector<int>{0, 1});
  UnionQuery ucq;
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(VarId{0})},
                                   {RelAtom{"B", {VarId{0}, VarId{1}}}}));
  ucq.AddDisjunct(ConjunctiveQuery({CTerm(VarId{1})},
                                   {RelAtom{"B", {VarId{0}, VarId{1}}}}));
  Query q = Query::Ucq(ucq);
  int rows = static_cast<int>(state.range(0));
  CInstance t(setting.schema);
  for (int i = 0; i < rows; ++i) {
    t.at("B").AddRow({Cell(Value::Int(i % 2)), Cell(Value::Int((i / 2) % 2))});
  }
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = MinpWeak(q, t, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MinpWeak_SubsetRemoval)->DenseRange(1, 4, 1);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
