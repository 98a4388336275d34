// Minimal data acquisition (Examples 2.2 / 2.4): use RCDP witnesses to find
// what is missing, extend the database one tuple at a time until the query
// is complete, then verify minimality with MINP.
#include <cstdio>

#include "core/minp.h"
#include "core/rcdp.h"
#include "query/printer.h"
#include "reductions/examples_fig1.h"

using namespace relcomp;

int main() {
  PatientsFixture fx = MakePatientsFixture();
  Result<PreparedSetting> setting = PreparedSetting::Prepare(fx.acquisition);
  if (!setting.ok()) {
    std::fprintf(stderr, "error: %s\n", setting.status().ToString().c_str());
    return 1;
  }

  std::printf("Query Q2: %s\n\n", fx.q2.ToString().c_str());
  Instance db = fx.ground;

  // Acquisition loop: while incomplete, add the witness extension's tuples.
  for (int round = 0; round < 5; ++round) {
    CompletenessWitness witness;
    Result<bool> complete =
        RcdpStrongGround(fx.q2, db, *setting, {}, nullptr, &witness);
    if (!complete.ok()) {
      std::fprintf(stderr, "error: %s\n", complete.status().ToString().c_str());
      return 1;
    }
    if (*complete) {
      std::printf("round %d: database is now complete for Q2.\n", round);
      break;
    }
    std::printf("round %d: incomplete — %s\n", round, witness.note.c_str());
    // Acquire the tuples the witness extension adds.
    size_t added = 0;
    for (size_t r = 0; r < witness.extension.relations().size(); ++r) {
      const Relation& ext_rel = witness.extension.relations()[r];
      for (const Tuple& t : ext_rel.rows()) {
        if (db.AddTuple(ext_rel.schema().name(), t)) {
          std::printf("  acquiring %s into %s\n", TupleToString(t).c_str(),
                      ext_rel.schema().name().c_str());
          ++added;
        }
      }
    }
    if (added == 0) break;
  }

  Result<Relation> answer = fx.q2.Eval(db);
  if (answer.ok()) {
    std::printf("\nfinal answer to Q2: %s\n", answer->ToString().c_str());
  }

  // Minimality check: is the whole database minimal for Q2? (No: the
  // unrelated London visits are removable.)
  Result<bool> minimal = MinpStrongGround(fx.q2, db, *setting);
  if (minimal.ok()) {
    std::printf("full database minimal for Q2? %s\n", *minimal ? "yes" : "no");
  }

  // A minimal complete database for Q2: just the acquired tuple.
  Instance minimal_db(setting->schema());
  minimal_db.AddTuple(
      "MVisit", {Value::Sym("915-15-321"), Value::Sym("Alice"),
                 Value::Sym("EDI"), Value::Int(2000), Value::Sym("F"),
                 Value::Sym("15/03/2015"), Value::Sym("Flu"),
                 Value::Sym("01")});
  Result<bool> min2 = MinpStrongGround(fx.q2, minimal_db, *setting);
  if (min2.ok()) {
    std::printf("single-tuple database minimal for Q2? %s\n",
                *min2 ? "yes" : "no");
  }
  return 0;
}
