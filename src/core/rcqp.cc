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

namespace {

// DFS over ground instances: tuples are added in a canonical order (relation
// index, then tuple order) so each instance is generated once. CC violations
// prune the subtree (CC bodies are monotone CQs).
class RcqpSearcher {
 public:
  RcqpSearcher(const Query& q, const PreparedSetting& prepared,
               const AdomContext& adom, size_t max_tuples,
               const SearchOptions& options, SearchStats* stats)
      : q_(q),
        prepared_(prepared),
        adom_(adom),
        max_tuples_(max_tuples),
        options_(options),
        stats_(stats),
        checkpoint_(options_, "RCQP search", "rcqp-dfs") {
    // Materialize candidate tuples per relation.
    for (const RelationSchema& rel : prepared.schema().relations()) {
      std::vector<Tuple> tuples;
      TupleEnumerator it(rel, adom);
      Tuple t;
      while (it.Next(&t)) tuples.push_back(t);
      candidates_.push_back(std::move(tuples));
    }
  }

  Result<RcqpSearchResult> Run() {
    Instance empty(prepared_.schema());
    RcqpSearchResult result;
    Result<bool> done = Explore(&empty, 0, 0, &result);
    if (!done.ok()) return done.status();
    if (!result.found) result.bound_exhausted = true;
    return result;
  }

 private:
  // Explores instances extending `current` by adding tuples at position ≥
  // (rel_index, tuple_index).
  Result<bool> Explore(Instance* current, size_t rel_index,
                       size_t tuple_index, RcqpSearchResult* result) {
    RELCOMP_RETURN_IF_ERROR(checkpoint_.Tick());
    // Check the current instance.
    Result<bool> closed = prepared_.SatisfiesCCs(*current);
    if (!closed.ok()) return closed.status();
    if (!*closed) return false;  // supersets can only stay violated
    Result<bool> complete = IsCompleteGround(q_, *current, prepared_, adom_,
                                             options_, stats_, nullptr);
    if (!complete.ok()) return complete.status();
    if (*complete) {
      result->found = true;
      result->witness = *current;
      return true;
    }
    if (current->TotalTuples() >= max_tuples_) return false;
    // Extend.
    for (size_t r = rel_index; r < candidates_.size(); ++r) {
      size_t start = (r == rel_index) ? tuple_index : 0;
      const std::string& rel_name =
          prepared_.schema().relations()[r].name();
      for (size_t ti = start; ti < candidates_[r].size(); ++ti) {
        current->AddTuple(rel_name, candidates_[r][ti]);
        Result<bool> found = Explore(current, r, ti + 1, result);
        current->RemoveTuple(rel_name, candidates_[r][ti]);
        if (!found.ok()) return found.status();
        if (*found) return true;
      }
    }
    return false;
  }

  const Query& q_;
  const PreparedSetting& prepared_;
  const AdomContext& adom_;
  size_t max_tuples_;
  SearchOptions options_;
  SearchStats* stats_;
  std::vector<std::vector<Tuple>> candidates_;
  SearchCheckpoint checkpoint_;
};

}  // namespace

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
  RcqpSearcher searcher(q, prepared, adom, max_tuples, options, stats);
  return searcher.Run();
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
    if (IsBoundedDisjunct(disjunct, prepared.schema(), prepared.ccs())) {
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
      Result<bool> closed = prepared.SatisfiesCCs(*canonical);
      if (!closed.ok()) return closed.status();
      if (*closed) {
        has_valid = true;
        break;
      }
    }
    if (has_valid) return false;
  }
  return true;
}

}  // namespace relcomp
