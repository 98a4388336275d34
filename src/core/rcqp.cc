#include "core/rcqp.h"

#include <algorithm>

namespace relcomp {

Result<bool> RcqpWeak(const Query& q, const PreparedSetting& prepared) {
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kRcqpWeak));
  // Theorem 5.4: for monotone languages a weakly complete instance always
  // exists (constructed as a maximal Adom instance in the proof).
  return true;
}

Result<RcqpSearchResult> RcqpStrongBounded(
    const Query& q, const PreparedSetting& prepared, size_t max_tuples,
    const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kRcqpStrong));
  CInstance empty(prepared.schema());
  AdomContext adom = prepared.BuildAdom(empty, &q);
  GroundCheck ground(q, prepared, adom);
  // Ground instances grow from ∅ in canonical tuple order, so each one is
  // generated once; CC violations prune the subtree (CC bodies are
  // monotone CQs), and a node that passes is closed for the ground check.
  ExtensionSearch search(prepared, adom, max_tuples, options, "RCQP search",
                         "rcqp-dfs");
  RcqpSearchResult result;
  using Step = ExtensionSearch::Step;
  auto test = [&](const Instance& candidate, size_t) -> Result<Step> {
    if (!*prepared.SatisfiesCCs(candidate)) {
      return Step::kPrune;  // supersets can only stay violated
    }
    Result<bool> complete = ground.IsComplete(candidate, options, stats);
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
  // Is column (rel, col) covered by some IND CC into master data?
  auto ind_covered = [&ccs](const std::string& rel, size_t col) {
    // LINT:waive(checkpoint-coverage, scans the CC set once)
    for (const ContainmentConstraint& cc : ccs) {
      if (!cc.IsInd() || cc.q().atoms()[0].rel != rel) continue;
      const std::vector<CTerm>& head = cc.q().head();
      if (std::find(head.begin(), head.end(), cc.q().atoms()[0].args[col]) !=
          head.end()) {
        return true;
      }
    }
    return false;
  };
  // Does `var` sit in a finite-domain or IND-covered column of the tableau?
  auto bounded = [&](VarId var) {
    // LINT:waive(checkpoint-coverage, scans the disjunct atoms once)
    for (const RelAtom& atom : disjunct.atoms()) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (atom.args[i] == CTerm(var) &&
            (schema.Find(atom.rel)->attribute(i).domain.is_finite() ||
             ind_covered(atom.rel, i))) {
          return true;
        }
      }
    }
    return false;
  };
  // LINT:waive(checkpoint-coverage, static boundedness check over the head)
  for (const CTerm& head_term : disjunct.head()) {
    if (std::holds_alternative<VarId>(head_term) &&
        !bounded(std::get<VarId>(head_term))) {
      return false;
    }
  }
  return true;
}

Result<bool> RcqpStrongInd(const Query& q,
                           const PreparedSetting& prepared,
                           const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kRcqpStrong));
  if (!prepared.all_inds()) {
    return Status::InvalidArgument(
        "RcqpStrongInd requires every CC to be an IND (Corollary 7.2)");
  }
  const std::vector<ConjunctiveQuery> disjuncts = q.Disjuncts().value();

  CInstance empty(prepared.schema());
  AdomContext adom = prepared.BuildAdom(empty, &q);

  SearchCheckpoint checkpoint(options, "IND RCQP valuation search", "rcqp-ind");
  Valuation nu;
  std::vector<DeltaRow> delta;
  for (const ConjunctiveQuery& disjunct : disjuncts) {
    // A bounded disjunct leaves RCQ non-empty.
    if (IsBoundedDisjunct(disjunct, prepared.schema(), prepared.ccs())) {
      continue;
    }
    // Unbounded disjunct: RCQ is still non-empty iff it has no valid
    // valuation (no partially closed canonical instance with an answer).
    // ∅ is partially closed: an IND's body is one atom.
    AdmissibleValuations valid(disjunct, prepared, adom);
    Result<bool> has_valid = valid.Next(&checkpoint, stats, &nu, &delta);
    if (!has_valid.ok()) return has_valid.status();
    if (*has_valid) return false;
  }
  return true;
}

}  // namespace relcomp
