// Shared helpers for the relcomp test suite.
#ifndef RELCOMP_TESTS_TEST_UTIL_H_
#define RELCOMP_TESTS_TEST_UTIL_H_

#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/prepared_setting.h"
#include "core/types.h"
#include "ctable/cinstance.h"
#include "data/instance.h"
#include "query/query.h"
#include "service/decision.h"

namespace relcomp {

/// Prints values in test failures as `Int 1` / `Sym "1"`, which the default
/// byte dump cannot tell apart.
inline void PrintTo(const Value& v, std::ostream* os) {
  if (v.is_int()) {
    *os << "Int " << v.as_int();
  } else {
    *os << "Sym \"" << v.sym_name() << "\"";
  }
}

namespace testing {

inline Value I(int64_t v) { return Value::Int(v); }
inline Value S(const char* s) { return Value::Sym(s); }
inline VarId V(int32_t id) { return VarId{id}; }

/// Schema with one relation "E(a, b)" over infinite domains.
inline DatabaseSchema EdgeSchema() {
  DatabaseSchema schema;
  schema.AddRelation(RelationSchema(
      "E", {Attribute{"a", Domain::Infinite()},
            Attribute{"b", Domain::Infinite()}}));
  return schema;
}

/// Prepares a fixture's setting for the deciders. Call it once per fixture,
/// not once per decider call. A setting that Prepare refuses fails the
/// running test with Prepare's status (gtest reports the exception).
inline PreparedSetting MustPrepare(PartiallyClosedSetting setting) {
  Result<PreparedSetting> prepared =
      PreparedSetting::Prepare(std::move(setting));
  if (!prepared.ok()) {
    throw std::runtime_error("Prepare refused the test setting: " +
                             prepared.status().ToString());
  }
  return std::move(prepared).value();
}

/// A setting with no master data and no CCs over `schema`.
inline PartiallyClosedSetting OpenSetting(DatabaseSchema schema) {
  PartiallyClosedSetting setting;
  setting.schema = std::move(schema);
  setting.dm = Instance(setting.master_schema);
  return setting;
}

/// A narrow MDM-audit fixture shared by the service-level tests:
/// IND-bounded visits over a 4-patient master, where every problem kind —
/// including RCQP strong and the weak models — is cheap. `city_offset`
/// varies the finite city domain so two fixtures give
/// fingerprint-distinct settings.
struct AuditFixture {
  PartiallyClosedSetting setting;
  CInstance audited;
  Query by_patient;  ///< cities visited by patient "nhs-0"
  Query all_cities;  ///< cities of any visit
};

inline AuditFixture MakeAuditFixture(int city_offset = 0) {
  AuditFixture fx;
  const Value city_a = city_offset == 0 ? S("EDI") : S("GLA");
  const Value city_b = city_offset == 0 ? S("LON") : S("ABD");
  fx.setting.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs", Domain::Infinite()},
                Attribute{"city", Domain::Finite({city_a, city_b})}}));
  fx.setting.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  fx.setting.dm = Instance(fx.setting.master_schema);
  for (int i = 0; i < 4; ++i) {
    fx.setting.dm.AddTuple("Patientm",
                           {Value::Sym("nhs-" + std::to_string(i))});
  }
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}, VarId{1}}}});
  fx.setting.ccs.emplace_back("visits_known", std::move(proj), "Patientm",
                              std::vector<int>{0});

  Instance db(fx.setting.schema);
  db.AddTuple("Visit", {S("nhs-0"), city_a});
  db.AddTuple("Visit", {S("nhs-1"), city_b});
  fx.audited = CInstance::FromInstance(db);

  fx.by_patient = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{0})}, {RelAtom{"Visit", {CTerm(S("nhs-0")), VarId{0}}}}));
  fx.all_cities = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{1})}, {RelAtom{"Visit", {VarId{0}, VarId{1}}}}));
  return fx;
}

/// A deliberately expensive decision: the audited c-instance carries `vars`
/// distinct variables in an infinite-domain column plus one ground "ghost"
/// row that violates the IND CC in every world, so Mod(T, Dm, V) is empty
/// but proving it exhausts the FULL |Adom|^vars valuation space (no early
/// exit) — |Adom| ≈ master_rows + a handful. The canonical use: a search
/// that runs long enough (or forever, up to the step budget) for a
/// mid-run deadline/cancellation checkpoint to fire, with per-step cost
/// dominated by Apply + CC checks.
struct SlowFixture {
  PartiallyClosedSetting setting;
  CInstance audited;
  Query query;

  DecisionRequest Request(ProblemKind kind = ProblemKind::kRcdpStrong) const {
    DecisionRequest request;
    request.kind = kind;
    request.query = query;
    request.cinstance = audited;
    return request;
  }
};

inline SlowFixture MakeSlowFixture(int master_rows, int vars) {
  SlowFixture fx;
  fx.setting.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs", Domain::Infinite()},
                Attribute{"city", Domain::Finite({S("EDI"), S("LON")})}}));
  fx.setting.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  fx.setting.dm = Instance(fx.setting.master_schema);
  for (int i = 0; i < master_rows; ++i) {
    fx.setting.dm.AddTuple("Patientm",
                           {Value::Sym("nhs-" + std::to_string(i))});
  }
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}, VarId{1}}}});
  fx.setting.ccs.emplace_back("visits_known", std::move(proj), "Patientm",
                              std::vector<int>{0});

  fx.audited = CInstance(fx.setting.schema);
  CTable& visits = fx.audited.at("Visit");
  visits.AddRow({Cell(S("ghost")), Cell(S("EDI"))});  // never in Patientm
  for (int v = 0; v < vars; ++v) {
    visits.AddRow({Cell(VarId{v}), Cell(S("EDI"))});
  }

  // Query variables keep small ids: the fresh-constant budget scales with
  // the variable universe (max id + 1), and a large id would inflate Adom
  // far beyond master_rows.
  fx.query = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{20})}, {RelAtom{"Visit", {VarId{21}, VarId{20}}}}));
  return fx;
}

/// Unwraps a Result<T> in a test, failing loudly on error.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                       \
  auto lhs##_result = (expr);                                 \
  ASSERT_TRUE(lhs##_result.ok()) << lhs##_result.status().ToString(); \
  auto lhs = std::move(lhs##_result).value()

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    auto _st = (expr);                                  \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

}  // namespace testing
}  // namespace relcomp

#endif  // RELCOMP_TESTS_TEST_UTIL_H_
