#include "core/rcqp.h"

#include <algorithm>

namespace relcomp {

Result<bool> RcqpWeak(const Query& q) {
  if (q.language() == QueryLanguage::kFO) {
    return Status::Undecidable(
        "RCQP (weak model) is undecidable for FO over ground instances "
        "(Theorem 5.4); the c-instance case is open in the paper");
  }
  // Theorem 5.4: for monotone languages a weakly complete instance always
  // exists (constructed as a maximal Adom instance in the proof).
  return true;
}

Result<RcqpSearchResult> RcqpStrongBounded(
    const Query& q, const PreparedSetting& prepared, size_t max_tuples,
    const SearchOptions& options, SearchStats* stats) {
  if (q.language() == QueryLanguage::kFO ||
      q.language() == QueryLanguage::kFP) {
    return Status::Undecidable(
        std::string("RCQP (strong/viable model) is undecidable for ") +
        QueryLanguageName(q.language()) + " (Theorem 4.5)");
  }
  CInstance empty(prepared.schema());
  AdomContext adom = prepared.BuildAdom(empty, &q);
  // Ground instances grow from ∅ in canonical tuple order, so each one is
  // generated once; CC violations prune the subtree (CC bodies are
  // monotone CQs).
  ExtensionSearch search(prepared, adom, max_tuples, options, "RCQP search",
                         "rcqp-dfs");
  RcqpSearchResult result;
  using Step = ExtensionSearch::Step;
  auto test = [&](const Instance& candidate, size_t) -> Result<Step> {
    if (!*prepared.SatisfiesCCs(candidate)) {
      return Step::kPrune;  // supersets can only stay violated
    }
    Result<bool> complete = IsCompleteGround(q, candidate, prepared, adom,
                                             options, stats, nullptr);
    if (!complete.ok()) return complete.status();
    if (!*complete) return Step::kDescend;
    result.found = true;
    result.witness = candidate;
    return Step::kStop;
  };
  RELCOMP_RETURN_IF_ERROR(search.Run(Instance(prepared.schema()), test));
  if (!result.found) result.bound_exhausted = true;
  return result;
}

bool IsBoundedDisjunct(const ConjunctiveQuery& disjunct,
                       const DatabaseSchema& schema, const CCSet& ccs) {
  // Positions of `var` in the tableau: (relation, column) pairs.
  auto positions = [&](VarId var) {
    std::vector<std::pair<std::string, size_t>> out;
    // LINT:waive(checkpoint-coverage, scans the disjunct atoms once)
    for (const RelAtom& atom : disjunct.atoms()) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (std::holds_alternative<VarId>(atom.args[i]) &&
            std::get<VarId>(atom.args[i]) == var) {
          out.emplace_back(atom.rel, i);
        }
      }
    }
    return out;
  };
  // Is column (rel, col) covered by some IND CC into master data?
  auto ind_covered = [&ccs](const std::string& rel, size_t col) {
    // LINT:waive(checkpoint-coverage, scans the CC set once)
    for (const ContainmentConstraint& cc : ccs) {
      if (!cc.IsInd()) continue;
      const RelAtom& atom = cc.q().atoms()[0];
      if (atom.rel != rel || col >= atom.args.size()) continue;
      if (!std::holds_alternative<VarId>(atom.args[col])) continue;
      VarId at_col = std::get<VarId>(atom.args[col]);
      for (const CTerm& h : cc.q().head()) {
        if (std::holds_alternative<VarId>(h) &&
            std::get<VarId>(h) == at_col) {
          return true;
        }
      }
    }
    return false;
  };
  // LINT:waive(checkpoint-coverage, static boundedness check over the head)
  for (const CTerm& head_term : disjunct.head()) {
    if (std::holds_alternative<Value>(head_term)) continue;  // constant
    VarId var = std::get<VarId>(head_term);
    bool bounded = false;
    for (const auto& [rel, col] : positions(var)) {
      const RelationSchema* rs = schema.Find(rel);
      if (rs != nullptr && col < rs->arity() &&
          rs->attribute(col).domain.is_finite()) {
        bounded = true;
        break;
      }
      if (ind_covered(rel, col)) {
        bounded = true;
        break;
      }
    }
    if (!bounded) return false;
  }
  return true;
}

Result<bool> RcqpStrongInd(const Query& q,
                           const PreparedSetting& prepared,
                           const SearchOptions& options, SearchStats* stats) {
  if (!prepared.all_inds()) {
    return Status::InvalidArgument(
        "RcqpStrongInd requires every CC to be an IND (Corollary 7.2)");
  }
  Result<std::vector<ConjunctiveQuery>> disjuncts = q.Disjuncts();
  if (!disjuncts.ok()) return disjuncts.status();

  CInstance empty(prepared.schema());
  AdomContext adom = prepared.BuildAdom(empty, &q);

  SearchCheckpoint checkpoint(options, "IND RCQP valuation search", "rcqp-ind");
  for (const ConjunctiveQuery& disjunct : *disjuncts) {
    // A bounded disjunct, or one whose builtins contradict each other (it
    // has no valid valuation), leaves RCQ non-empty.
    if (IsBoundedDisjunct(disjunct, prepared.schema(), prepared.ccs()) ||
        !disjunct.BuiltinsSatisfiable()) {
      continue;
    }
    // Unbounded disjunct: RCQ is still non-empty iff it has no valid
    // valuation (no partially closed canonical instance with an answer).
    bool has_valid = false;
    Instance empty_instance(prepared.schema());
    CanonicalValuationEnumerator nus = MakeCanonicalCqEnumerator(
        disjunct, prepared.schema(), adom, empty_instance);
    Valuation nu;
    while (nus.Next(&nu)) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      if (stats != nullptr) ++stats->valuations;
      Result<bool> builtins_ok = disjunct.BuiltinsSatisfied(nu);
      if (!builtins_ok.ok()) return builtins_ok.status();
      if (!*builtins_ok) continue;
      Result<Instance> canonical =
          disjunct.InstantiateTableau(nu, prepared.schema());
      if (!canonical.ok()) return canonical.status();
      if (stats != nullptr) ++stats->cc_checks;
      if (*prepared.SatisfiesCCs(*canonical)) {
        has_valid = true;
        break;
      }
    }
    if (has_valid) return false;
  }
  return true;
}

}  // namespace relcomp
