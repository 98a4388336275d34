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

/// A deliberately expensive decision that stays expensive under any sound
/// row order: a pigeonhole. The audited c-instance holds `rows` rows
/// Visit("nhs-i", x_i) with distinct keys, the slot column ranges over
/// rows − 1 values, and the FD slot → nhs (an EncodeFdAsCc CC into the
/// empty master Empty1) forbids two rows in one slot. So Mod(T, Dm, V) is
/// empty and no world is ever stored, but proving it takes
/// (rows − 1)·Σₖ P(rows − 1, k) row bindings, each one step with a delta CC
/// check: 1,630 at 6 rows, 11,742 at 7, 95,900 at 8, 876,808 at 9, about
/// 8.9M at 10 and 98.6M at 11. The canonical use: a search that runs long
/// enough (or, past the step budget, forever) for a mid-run
/// deadline/cancellation checkpoint to fire. `rows` must be at least 2.
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

inline SlowFixture MakeSlowFixture(int rows) {
  SlowFixture fx;
  const RelationSchema visit(
      "Visit", {Attribute{"nhs", Domain::Infinite()},
                Attribute{"slot", Domain::IntRange(1, rows - 1)}});
  fx.setting.schema.AddRelation(visit);
  fx.setting.master_schema.AddRelation(
      RelationSchema("Empty1", {Attribute{"w", Domain::Infinite()}}));
  fx.setting.dm = Instance(fx.setting.master_schema);
  fx.setting.ccs.push_back(
      EncodeFdAsCc(visit, /*lhs=*/{1}, /*rhs=*/0, "Empty1").value());

  fx.audited = CInstance(fx.setting.schema);
  CTable& visits = fx.audited.at("Visit");
  for (int v = 0; v < rows; ++v) {
    visits.AddRow({Cell(Value::Sym("nhs-" + std::to_string(v))),
                   Cell(VarId{v})});
  }
  fx.query = Query::Cq(ConjunctiveQuery(
      {CTerm(VarId{0})}, {RelAtom{"Visit", {VarId{1}, VarId{0}}}}));
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
