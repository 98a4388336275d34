// Inflationary fixpoint evaluation: S0 = ∅; S_{j+1} = S_j ∪ Q′(S_j, I);
// iterate until convergence. Rule bodies are evaluated by the CQ engine over
// the combined EDB ∪ IDB instance.
#include "query/fp.h"

namespace relcomp {

Result<Relation> FpProgram::Eval(const Instance& edb) const {
  RELCOMP_RETURN_IF_ERROR(Validate(edb.schema()));
  Instance combined(CombinedSchema(edb.schema()));
  for (const Relation& rel : edb.relations()) {
    combined.at(rel.schema().name()) = rel;
  }

  // Precompile each rule body into a CQ whose head is the rule head's args.
  std::vector<ConjunctiveQuery> rule_queries;
  rule_queries.reserve(rules_.size());
  for (const FpRule& rule : rules_) {
    rule_queries.emplace_back(rule.head.args, rule.body, rule.builtins);
  }

  // Naive inflationary iteration.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < rules_.size(); ++i) {
      // Validate admitted each rule over `combined`: Eval cannot fail.
      const Relation derived = rule_queries[i].Eval(combined).value();
      Relation& idb_rel = combined.at(rules_[i].head.rel);
      for (const Tuple& t : derived.rows()) {
        if (idb_rel.Insert(t)) changed = true;
      }
    }
  }
  return combined.at(output_);
}

}  // namespace relcomp
