#include "query/fp.h"

#include <algorithm>

namespace relcomp {

std::string FpRule::ToString() const {
  std::string out = head.ToString() + " :- ";
  bool first = true;
  for (const RelAtom& atom : body) {
    if (!first) out += ", ";
    first = false;
    out += atom.ToString();
  }
  for (const CondAtom& b : builtins) {
    if (!first) out += ", ";
    first = false;
    out += b.ToString();
  }
  return out;
}

std::vector<std::string> FpProgram::IdbPredicates() const {
  std::vector<std::string> idbs;
  for (const FpRule& rule : rules_) idbs.push_back(rule.head.rel);
  std::sort(idbs.begin(), idbs.end());
  idbs.erase(std::unique(idbs.begin(), idbs.end()), idbs.end());
  return idbs;
}

size_t FpProgram::OutputArity() const {
  for (const FpRule& rule : rules_) {
    if (rule.head.rel == output_) return rule.head.args.size();
  }
  return 0;
}

DatabaseSchema FpProgram::CombinedSchema(
    const DatabaseSchema& edb_schema) const {
  DatabaseSchema combined = edb_schema;
  for (const FpRule& rule : rules_) {
    if (!combined.Contains(rule.head.rel)) {
      combined.AddRelation(
          RelationSchema::Anonymous(rule.head.rel, rule.head.args.size()));
    }
  }
  return combined;
}

Status FpProgram::Validate(const DatabaseSchema& edb_schema) const {
  const std::vector<std::string> idbs = IdbPredicates();
  for (const std::string& idb : idbs) {
    if (edb_schema.Contains(idb)) {
      return Status::InvalidArgument("IDB predicate '" + idb +
                                     "' collides with an EDB relation");
    }
  }
  if (!std::binary_search(idbs.begin(), idbs.end(), output_)) {
    return Status::InvalidArgument("output predicate '" + output_ +
                                   "' is not defined by any rule");
  }
  // Each rule, read as a CQ over EDB ∪ IDB, must validate: every relation
  // known, with one arity (an IDB's first head fixes it), and every head
  // and builtin variable bound by the body.
  const DatabaseSchema combined = CombinedSchema(edb_schema);
  for (const FpRule& rule : rules_) {
    RELCOMP_RETURN_IF_ERROR(rule.head.Validate(combined));
    const ConjunctiveQuery as_cq(rule.head.args, rule.body, rule.builtins);
    RELCOMP_RETURN_IF_ERROR(as_cq.Validate(combined));
  }
  return Status::OK();
}

std::vector<Value> FpProgram::Constants() const {
  std::vector<Value> consts;
  auto add_term = [&consts](const CTerm& t) {
    if (std::holds_alternative<Value>(t)) consts.push_back(std::get<Value>(t));
  };
  for (const FpRule& rule : rules_) {
    for (const CTerm& t : rule.head.args) add_term(t);
    for (const RelAtom& atom : rule.body) {
      for (const CTerm& t : atom.args) add_term(t);
    }
    for (const CondAtom& b : rule.builtins) {
      add_term(b.lhs);
      add_term(b.rhs);
    }
  }
  std::sort(consts.begin(), consts.end());
  consts.erase(std::unique(consts.begin(), consts.end()), consts.end());
  return consts;
}

std::string FpProgram::ToString() const {
  std::string out;
  for (const FpRule& rule : rules_) {
    out += rule.ToString() + ".\n";
  }
  out += "output " + output_ + ".";
  return out;
}

}  // namespace relcomp
