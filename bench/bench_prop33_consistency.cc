// Experiment P33 (Proposition 3.3): consistency and extensibility are
// Σp2-complete. The ∀∃3SAT gadget family shows the exponential growth in the
// number of quantified variables (the combined-complexity hardness), while
// the data-size sweep shows polynomial growth for a fixed gadget (the
// Section 7 data-complexity contrast).
#include <benchmark/benchmark.h>

#include "core/consistency.h"
#include "reductions/prop33.h"

namespace relcomp {
namespace {

void BM_ConsistencyVsQuantifiedVars(benchmark::State& state) {
  int nx = static_cast<int>(state.range(0));
  Qbf qbf = MakeForallExists(nx, 2, RandomCnf3(nx + 2, 3, 7));
  GadgetProblem gadget = BuildConsistencyGadget(qbf);
  SearchOptions options;
  options.max_steps = 1ull << 40;
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    SearchStats stats;
    auto r = IsConsistent(*prepared, gadget.cinstance, options, &stats);
    benchmark::DoNotOptimize(r);
    state.counters["valuations"] = static_cast<double>(stats.valuations);
  }
}
BENCHMARK(BM_ConsistencyVsQuantifiedVars)->DenseRange(1, 6, 1);

void BM_ExtensibilityVsQuantifiedVars(benchmark::State& state) {
  int nx = static_cast<int>(state.range(0));
  Qbf qbf = MakeForallExists(nx, 2, RandomCnf3(nx + 2, 3, 7));
  GadgetProblem gadget = BuildExtensibilityGadget(qbf);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    SearchStats stats;
    auto r = IsExtensible(*prepared, gadget.ground, {}, &stats);
    benchmark::DoNotOptimize(r);
    state.counters["extensions"] = static_cast<double>(stats.extensions);
  }
}
BENCHMARK(BM_ExtensibilityVsQuantifiedVars)->DenseRange(1, 6, 1);

void BM_ConsistencyVsExistsBlock(benchmark::State& state) {
  // Growth in the ∃ block inflates the CC query, not the world count.
  int ny = static_cast<int>(state.range(0));
  Qbf qbf = MakeForallExists(2, ny, RandomCnf3(2 + ny, 3, 11));
  GadgetProblem gadget = BuildConsistencyGadget(qbf);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = IsConsistent(*prepared, gadget.cinstance);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ConsistencyVsExistsBlock)->DenseRange(1, 5, 1);

void BM_ConsistencyDataComplexity(benchmark::State& state) {
  // Fixed 2-variable gadget; grow the master data through a relation no CC
  // touches — combined complexity stays put, data size grows.
  Qbf qbf = MakeForallExists(2, 2, RandomCnf3(4, 3, 3));
  GadgetProblem gadget = BuildConsistencyGadget(qbf);
  gadget.setting.master_schema.AddRelation(
      RelationSchema("PadM", {Attribute{"x", Domain::Infinite()}}));
  Instance padded(gadget.setting.master_schema);
  for (const Relation& rel : gadget.setting.dm.relations()) {
    padded.at(rel.schema().name()) = rel;
  }
  int pad = static_cast<int>(state.range(0));
  for (int i = 0; i < pad; ++i) {
    padded.AddTuple("PadM", {Value::Sym("pad" + std::to_string(i))});
  }
  gadget.setting.dm = std::move(padded);
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(gadget.setting);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = IsConsistent(*prepared, gadget.cinstance);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConsistencyDataComplexity)->Range(8, 1024)->Complexity();

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
