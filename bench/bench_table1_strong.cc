// Experiment T1-S (Table I, strong-model row):
//   RCDPˢ   — Πp2-complete for CQ/UCQ/∃FO⁺       (Theorem 4.1)
//   RCQPˢ   — NEXPTIME-complete                   (Theorem 4.5)
//   MINPˢ   — Πp3-complete (c-inst), Dp2 (ground) (Theorem 4.8)
// Workloads are the paper's own gadget families; series grow the number of
// quantified variables, so each curve's exponential slope exhibits its
// complexity class. The ground-vs-c-instance pair shows the Dp2 / Πp3 gap.
#include <benchmark/benchmark.h>

#include "core/minp.h"
#include "core/rcdp.h"
#include "core/rcqp.h"
#include "reductions/examples_fig1.h"
#include "reductions/thm48_minps.h"

namespace relcomp {
namespace {

SearchOptions BigBudget() {
  SearchOptions o;
  o.max_steps = 1ull << 42;
  return o;
}

void BM_RcdpStrong_PatientsVsVars(benchmark::State& state) {
  // Fig. 1 family: each extra missing value multiplies the world count.
  PatientsFixture fx =
      MakeScaledPatientsFixture(2, static_cast<int>(state.range(0)));
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    SearchStats stats;
    auto r = RcdpStrong(fx.q1, fx.ctable, *prepared, BigBudget(), &stats);
    benchmark::DoNotOptimize(r);
    state.counters["worlds"] = static_cast<double>(stats.worlds);
  }
}
BENCHMARK(BM_RcdpStrong_PatientsVsVars)->DenseRange(0, 3, 1);

void BM_RcdpStrong_PatientsVsRows(benchmark::State& state) {
  // Data-size growth at a fixed number of variables: the polynomial regime.
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
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpStrong_PatientsVsRows)->Range(2, 16)->Complexity();

void BM_MinpStrong_CInstance(benchmark::State& state) {
  // Thm 4.8 gadget (Is = {0, 1}); growing X inflates the Πp3 world sweep.
  int nx = static_cast<int>(state.range(0));
  Qbf qbf = MakeExistsForallExists(nx, 1, 1, RandomCnf3(nx + 2, 1, 5));
  GadgetProblem gadget = BuildSigma3Gadget(qbf, /*full_rs=*/true);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    SearchStats stats;
    auto r = MinpStrong(gadget.query, gadget.cinstance, *prepared, BigBudget(),
                        &stats);
    benchmark::DoNotOptimize(r);
    state.counters["valuations"] = static_cast<double>(stats.valuations);
  }
}
BENCHMARK(BM_MinpStrong_CInstance)->DenseRange(1, 3, 1);

void BM_MinpStrong_Ground(benchmark::State& state) {
  // The same gadget grounded by one valuation: the Dp2 ground case; at equal
  // size this runs one world instead of 2^nx — the Table I gap.
  int nx = static_cast<int>(state.range(0));
  Qbf qbf = MakeExistsForallExists(nx, 1, 1, RandomCnf3(nx + 2, 1, 5));
  GadgetProblem gadget = BuildSigma3Gadget(qbf, /*full_rs=*/true);
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
BENCHMARK(BM_MinpStrong_Ground)->DenseRange(1, 3, 1);

void BM_RcqpStrong_BoundedSearch(benchmark::State& state) {
  // NEXPTIME witness search over instances of growing size bound.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "B", {Attribute{"x", Domain::Finite({Value::Int(0), Value::Int(1),
                                           Value::Int(2)})}}));
  setting.dm = Instance(setting.master_schema);
  Query q = Query::Cq(
      ConjunctiveQuery({CTerm(VarId{0})}, {RelAtom{"B", {VarId{0}}}}));
  size_t bound = static_cast<size_t>(state.range(0));
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcqpStrongBounded(q, *prepared, bound, BigBudget());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RcqpStrong_BoundedSearch)->DenseRange(1, 3, 1);

void BM_RcqpStrong_IndPtime(benchmark::State& state) {
  // Corollary 7.2: the IND case decided in PTIME, vs master-data size.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs"}, Attribute{"note"}}));
  setting.master_schema.AddRelation(RelationSchema("Pm", {Attribute{"nhs"}}));
  setting.dm = Instance(setting.master_schema);
  for (int i = 0; i < state.range(0); ++i) {
    setting.dm.AddTuple("Pm", {Value::Sym("n" + std::to_string(i))});
  }
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}, VarId{1}}}});
  setting.ccs.emplace_back("ind", std::move(proj), "Pm",
                           std::vector<int>{0});
  Query q = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{0})}, {RelAtom{"Visit", {VarId{0}, VarId{1}}}}));
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = RcqpStrongInd(q, *prepared);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcqpStrong_IndPtime)->Range(8, 512)->Complexity();

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
