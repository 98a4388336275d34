// Experiment S7 (Section 7, Corollaries 7.1–7.3): with Q and V fixed and a
// constant number of variables, RCDP / MINP scale polynomially in the data
// size (|T| rows and |Dm|), in contrast to the exponential variable sweeps
// of the combined-complexity benchmarks (BM_RcdpStrong_PatientsVsVars in
// bench_table1_strong runs the same decider outside the regime). Each bench
// checks the regime once, before its timed loop, and then times the general
// decider.
#include <benchmark/benchmark.h>

#include "core/minp.h"
#include "core/rcdp.h"
#include "core/tractable.h"
#include "reductions/examples_fig1.h"

namespace relcomp {
namespace {

SearchOptions BigBudget() {
  SearchOptions o;
  o.max_steps = 1ull << 42;
  return o;
}

// Prepares the setting once (q, t) is in the regime of at most 8
// variables; skips the bench with the reason otherwise.
Result<PreparedSetting> PrepareInRegime(benchmark::State& state,
                                        const PartiallyClosedSetting& setting,
                                        const Query& q, const CInstance& t) {
  const TractabilityCheck regime = CheckDataComplexityRegime(q, t, 8);
  Result<PreparedSetting> prepared = Status::InvalidArgument(regime.reason);
  if (regime.ok) prepared = PreparedSetting::Prepare(setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
  }
  return prepared;
}

void BM_RcdpStrongTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 2);
  Result<PreparedSetting> prepared =
      PrepareInRegime(state, fx.setting, fx.q1, fx.ctable);
  if (!prepared.ok()) return;
  for (auto _ : state) {
    auto r = RcdpStrong(fx.q1, fx.ctable, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpStrongTractable_VsRows)->Range(2, 16)->Complexity();

void BM_RcdpWeakTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 1);
  Result<PreparedSetting> prepared =
      PrepareInRegime(state, fx.setting, fx.q1, fx.ctable);
  if (!prepared.ok()) return;
  for (auto _ : state) {
    auto r = RcdpWeak(fx.q1, fx.ctable, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpWeakTractable_VsRows)->Range(2, 16)->Complexity();

void BM_RcdpViableTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 2);
  Result<PreparedSetting> prepared =
      PrepareInRegime(state, fx.setting, fx.q4, fx.ctable);
  if (!prepared.ok()) return;
  for (auto _ : state) {
    auto r = RcdpViable(fx.q4, fx.ctable, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpViableTractable_VsRows)->Range(2, 8)->Complexity();

void BM_MinpWeakCqTractable_VsMaster(benchmark::State& state) {
  // Lemma 5.7's coDP check against growing master data.
  PatientsFixture fx = MakePatientsFixture();
  for (int i = 0; i < state.range(0); ++i) {
    fx.setting.dm.AddTuple(
        "Patientm", {Value::Sym("777-" + std::to_string(i)), Value::Sym("X"),
                     Value::Int(1999), Value::Sym("Z"), Value::Sym("M")});
  }
  CInstance empty(fx.setting.schema);
  Result<PreparedSetting> prepared =
      PrepareInRegime(state, fx.setting, fx.q1, empty);
  if (!prepared.ok()) return;
  for (auto _ : state) {
    auto r = MinpWeakCq(fx.q1, empty, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinpWeakCqTractable_VsMaster)->Range(4, 64)->Complexity();

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
