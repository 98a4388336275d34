// Quickstart: the paper's running example end to end — build the Fig. 1
// c-table, the Patientm master data and the Example 2.1 CCs, then decide
// strong / weak / viable completeness for the queries of Examples 1.1-2.3.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/consistency.h"
#include "core/rcdp.h"
#include "query/printer.h"
#include "reductions/examples_fig1.h"
#include "service/service.h"

using namespace relcomp;

namespace {

const char* Verdict(const Result<bool>& r) {
  if (!r.ok()) return r.status().ToString().c_str();
  return *r ? "YES" : "no";
}

}  // namespace

int main() {
  PatientsFixture fx = MakePatientsFixture();

  std::printf("== The Fig. 1 c-table ==\n%s\n",
              FormatCTable(fx.ctable.at("MVisit")).c_str());
  std::printf("== Master data ==\n%s\n",
              FormatRelation(fx.setting.dm.at("Patientm")).c_str());

  // Every decider takes the setting prepared once: validated, with its
  // derived artifacts cached.
  Result<PreparedSetting> prepared = PreparedSetting::Prepare(fx.setting);
  if (!prepared.ok()) {
    std::fprintf(stderr, "error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }

  Result<bool> consistent = IsConsistent(*prepared, fx.ctable);
  std::printf("c-instance consistent (Mod nonempty)?  %s\n\n",
              Verdict(consistent));

  struct Row {
    const char* name;
    const Query* q;
  } queries[] = {{"Q1 (NHS 915-15-335, EDI, born 2000)", &fx.q1},
                 {"Q4 (EDI, born 2000, visited 15/03)", &fx.q4}};

  for (const Row& row : queries) {
    std::printf("-- %s\n   %s\n", row.name, row.q->ToString().c_str());
    Result<bool> strong = RcdpStrong(*row.q, fx.ctable, *prepared);
    Result<bool> weak = RcdpWeak(*row.q, fx.ctable, *prepared);
    Result<bool> viable = RcdpViable(*row.q, fx.ctable, *prepared);
    std::printf("   strongly complete: %s\n", Verdict(strong));
    std::printf("   weakly complete:   %s\n", Verdict(weak));
    std::printf("   viably complete:   %s\n\n", Verdict(viable));
  }

  // A strong-model counterexample, explained.
  CompletenessWitness witness;
  Result<bool> q4_strong =
      RcdpStrong(fx.q4, fx.ctable, *prepared, {}, nullptr, &witness);
  if (q4_strong.ok() && !*q4_strong) {
    std::printf("Why Q4 is not strongly complete:\n%s\n",
                witness.ToString().c_str());
  }

  // The same decision through the service front door — the deployment
  // shape: register the setting once, audit in batches, read the witness
  // off the Decision instead of threading an out-parameter.
  CompletenessService service;
  Result<SettingHandle> handle = service.RegisterSetting(fx.setting);
  if (handle.ok()) {
    DecisionRequest request;
    request.kind = ProblemKind::kRcdpStrong;
    request.query = fx.q4;
    request.cinstance = fx.ctable;
    request.want_witness = true;
    Decision decision = service.Decide({*handle, request});
    std::printf("\nVia CompletenessService: Q4 strongly complete? %s\n",
                decision.ToString().c_str());
    if (decision.witness != nullptr) {
      std::printf("service-carried witness: %s\n",
                  decision.witness->note.c_str());
    }
  }
  return 0;
}
