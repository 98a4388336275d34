// Experiment T1-V (Table I, viable-model row):
//   RCDPᵛ — Σp3-complete for c-instances vs Πp2 for ground (Theorem 6.1)
//   RCQPᵛ — NEXPTIME-complete, ≡ the strong model (Lemma 4.4 / Cor 6.2)
//   MINPᵛ — Σp3-complete vs Dp2 for ground (Corollary 6.3)
// The c-instance/ground pairs at equal size exhibit the Table I gaps.
#include <benchmark/benchmark.h>

#include "core/minp.h"
#include "core/rcdp.h"
#include "reductions/thm61_viable.h"

namespace relcomp {
namespace {

SearchOptions BigBudget() {
  SearchOptions o;
  o.max_steps = 1ull << 42;
  return o;
}

GadgetProblem MakeGadget(int nx) {
  Qbf qbf = MakeExistsForallExists(nx, 1, 1, RandomCnf3(nx + 2, 1, 29));
  return BuildViableGadget(qbf);
}

void BM_RcdpViable_CInstance(benchmark::State& state) {
  GadgetProblem gadget = MakeGadget(static_cast<int>(state.range(0)));
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    SearchStats stats;
    auto r = RcdpViable(gadget.query, gadget.cinstance, *prepared,
                        BigBudget(), &stats);
    benchmark::DoNotOptimize(r);
    state.counters["worlds"] = static_cast<double>(stats.worlds);
  }
}
BENCHMARK(BM_RcdpViable_CInstance)->DenseRange(1, 3, 1);

void BM_RcdpViable_Ground(benchmark::State& state) {
  GadgetProblem gadget = MakeGadget(static_cast<int>(state.range(0)));
  Valuation mu;
  for (VarId v : gadget.cinstance.Vars()) mu.Bind(v, Value::Int(1));
  Instance ground = *gadget.cinstance.Apply(mu);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcdpStrongGround(gadget.query, ground, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RcdpViable_Ground)->DenseRange(1, 3, 1);

void BM_MinpViable_CInstance(benchmark::State& state) {
  GadgetProblem gadget = MakeGadget(static_cast<int>(state.range(0)));
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = MinpViable(gadget.query, gadget.cinstance, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MinpViable_CInstance)->DenseRange(1, 3, 1);

void BM_MinpViable_Ground(benchmark::State& state) {
  GadgetProblem gadget = MakeGadget(static_cast<int>(state.range(0)));
  Valuation mu;
  for (VarId v : gadget.cinstance.Vars()) mu.Bind(v, Value::Int(1));
  Instance ground = *gadget.cinstance.Apply(mu);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = MinpStrongGround(gadget.query, ground, *prepared, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MinpViable_Ground)->DenseRange(1, 3, 1);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
