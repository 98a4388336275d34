// Experiment F1/F2 (Figures 1–2, Examples 1.1–2.4): the patients MDM
// workload end to end — consistency, the three RCDP models and the query
// evaluation itself on the Fig. 1 family at growing database sizes.
#include <benchmark/benchmark.h>

#include "core/consistency.h"
#include "core/rcdp.h"
#include "reductions/examples_fig1.h"

namespace relcomp {
namespace {

SearchOptions BigBudget() {
  SearchOptions o;
  o.max_steps = 1ull << 42;
  return o;
}

void BM_Fig1_Consistency(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 2);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = IsConsistent(*prepared, fx.ctable, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig1_Consistency)->Range(2, 64);

void BM_Fig1_Q1Strong(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 1);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpStrong(fx.q1, fx.ctable, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig1_Q1Strong)->Range(2, 16);

void BM_Fig1_Q4Weak(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 0);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpWeak(fx.q4, fx.ctable, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig1_Q4Weak)->Range(2, 8);

void BM_Fig1_Q4Viable(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 1);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpViable(fx.q4, fx.ctable, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig1_Q4Viable)->Range(2, 8);

void BM_Fig1_QueryEvalOnly(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 0);
  for (auto _ : state) {
    auto r = fx.q4.Eval(fx.ground);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Fig1_QueryEvalOnly)->Range(8, 1024)->Complexity();

void BM_Fig1_GroundQ2Completeness(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 0);
  Result<PreparedSetting> acquisition =
      PreparedSetting::Prepare(fx.acquisition);
  if (!acquisition.ok()) {
    state.SkipWithError(acquisition.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpStrongGround(fx.q2, fx.ground, *acquisition, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig1_GroundQ2Completeness)->Range(2, 64);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
