// A small textual language for schemas, instances, queries (CQ/UCQ/FO/FP)
// and containment constraints, so examples and tools can define workloads
// declaratively. See examples/mdm_audit.cc for a complete program.
//
//   schema MVisit(nhs: sym, city: sym, yob: int, gd: {"M", "F"}).
//   master Patientm(nhs: sym, name: sym).
//   instance db { MVisit("915", "EDI", 2000, "M"). }
//   minstance dm { Patientm("915", "John"). }
//   query Q1(na) :- MVisit(n, na, c, y), n = "915", y = 2000.
//   cc C1(n, na) :- MVisit(n, na, c, y), c = "EDI" <= Patientm[nhs, name].
//   fo Q2(x) := exists y (R(x, y) & !(x = y)).
//   fp TC { T(x,y) :- E(x,y). T(x,y) :- T(x,z), E(z,y). output T. }
//
// Identifiers are variables inside query bodies; constants are numbers or
// double-quoted strings. Repeating `query` with the same name builds a UCQ.
#ifndef RELCOMP_QUERY_PARSER_H_
#define RELCOMP_QUERY_PARSER_H_

#include <map>
#include <string>

#include "data/instance.h"
#include "query/containment.h"
#include "query/query.h"

namespace relcomp {

/// Everything a parsed program declares. Each `instance` block is an
/// instance of the whole `schema`, each `minstance` block of the whole
/// `master_schema`, whatever the order of the declarations.
struct ParsedProgram {
  DatabaseSchema schema;         ///< `schema` declarations.
  DatabaseSchema master_schema;  ///< `master` declarations.
  std::map<std::string, Instance> instances;   ///< `instance` blocks.
  std::map<std::string, Instance> minstances;  ///< `minstance` blocks.
  std::map<std::string, Query> queries;        ///< queries by name.
  CCSet ccs;                                   ///< containment constraints.
};

/// Parses a full program; fails with kParseError (line/column in message).
Result<ParsedProgram> ParseProgram(const std::string& text);

}  // namespace relcomp

#endif  // RELCOMP_QUERY_PARSER_H_
