// Experiment S7 (Section 7, Corollaries 7.1–7.3): with Q and V fixed and a
// constant number of variables, RCDP / MINP scale polynomially in the data
// size (|T| rows and |Dm|), in contrast to the exponential variable sweeps
// of the combined-complexity benchmarks (BM_RcdpStrong_PatientsVsVars in
// bench_table1_strong runs the same decider outside the regime).
#include <benchmark/benchmark.h>

#include "core/tractable.h"
#include "reductions/examples_fig1.h"

namespace relcomp {
namespace {

SearchOptions BigBudget() {
  SearchOptions o;
  o.max_steps = 1ull << 42;
  return o;
}

void BM_RcdpStrongTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 2);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpStrongTractable(fx.q1, fx.ctable, *prepared, 8, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpStrongTractable_VsRows)->Range(2, 16)->Complexity();

void BM_RcdpWeakTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 1);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpWeakTractable(fx.q1, fx.ctable, *prepared, 8, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpWeakTractable_VsRows)->Range(2, 16)->Complexity();

void BM_RcdpViableTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 2);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpViableTractable(fx.q4, fx.ctable, *prepared, 8, BigBudget());
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
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = MinpWeakCqTractable(fx.q1, empty, *prepared, 8, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinpWeakCqTractable_VsMaster)->Range(4, 64)->Complexity();

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
