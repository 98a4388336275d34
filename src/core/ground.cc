#include "core/ground.h"

namespace relcomp {
namespace {

// The schema index of each tableau atom's relation, resolved once per
// disjunct; fails like ConjunctiveQuery::InstantiateTableau on an unknown
// relation.
Result<std::vector<size_t>> AtomRelations(const ConjunctiveQuery& q,
                                          const DatabaseSchema& schema) {
  std::vector<size_t> rels;
  rels.reserve(q.atoms().size());
  // LINT:waive(checkpoint-coverage, one lookup per tableau atom)
  for (const RelAtom& atom : q.atoms()) {
    const int rel = schema.IndexOf(atom.rel);
    if (rel < 0) {
      return Status::NotFound("tableau atom over unknown relation '" +
                              atom.rel + "'");
    }
    rels.push_back(static_cast<size_t>(rel));
  }
  return rels;
}

// ν(T_Q) as delta rows, reusing `delta`'s storage; `rels` holds each atom's
// schema index. Fails like ConjunctiveQuery::InstantiateTableau on an
// unbound variable.
Status InstantiateDelta(const ConjunctiveQuery& q,
                        const std::vector<size_t>& rels, const Valuation& nu,
                        std::vector<DeltaRow>* delta) {
  delta->resize(q.atoms().size());
  // LINT:waive(checkpoint-coverage, one row per tableau atom)
  for (size_t a = 0; a < q.atoms().size(); ++a) {
    const RelAtom& atom = q.atoms()[a];
    DeltaRow& row = (*delta)[a];
    row.rel = rels[a];
    row.tuple.clear();
    for (const CTerm& term : atom.args) {
      std::optional<Value> v = nu.Resolve(term);
      if (!v.has_value()) {
        return Status::InvalidArgument("unbound variable in tableau atom " +
                                       atom.ToString());
      }
      row.tuple.push_back(*v);
    }
  }
  return Status::OK();
}

}  // namespace

Result<bool> IsCompleteGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const AdomContext& adom,
                              const SearchOptions& options, SearchStats* stats,
                              CompletenessWitness* witness) {
  if (q.language() == QueryLanguage::kFO ||
      q.language() == QueryLanguage::kFP) {
    return Status::Undecidable(
        std::string("RCDP in the strong/viable model is undecidable for ") +
        QueryLanguageName(q.language()) +
        " (Theorem 4.1); use the bounded search in core/bounded.h");
  }
  if (!*prepared.SatisfiesCCs(instance)) {
    if (witness != nullptr) {
      witness->note = "instance is not partially closed: a CC is violated";
    }
    return false;
  }

  if (stats != nullptr) ++stats->query_evals;
  Result<Relation> answers = EvalOverAdom(q, instance, adom);
  if (!answers.ok()) return answers.status();

  Result<std::vector<ConjunctiveQuery>> disjuncts = q.Disjuncts();
  if (!disjuncts.ok()) return disjuncts.status();

  SearchCheckpoint checkpoint(options, "ground completeness search", "ground");
  std::vector<DeltaRow> delta;  // ν(T_Q), refilled per candidate
  for (const ConjunctiveQuery& disjunct : *disjuncts) {
    // No ν satisfies contradictory builtins, so the disjunct adds nothing.
    if (!disjunct.BuiltinsSatisfiable()) continue;
    Result<std::vector<size_t>> rels =
        AtomRelations(disjunct, prepared.schema());
    if (!rels.ok()) return rels.status();
    // Fresh constants are interchangeable in this existential search, so a
    // symmetry-broken enumeration suffices (values of I stay pinned).
    CanonicalValuationEnumerator nus =
        MakeCanonicalCqEnumerator(disjunct, prepared.schema(), adom, instance);
    Valuation nu;
    while (nus.Next(&nu)) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      if (stats != nullptr) ++stats->valuations;
      // The canonical extension only produces a new answer if the builtins
      // hold under ν.
      Result<bool> builtins_ok = disjunct.BuiltinsSatisfied(nu);
      if (!builtins_ok.ok()) return builtins_ok.status();
      if (!*builtins_ok) continue;
      // Cheap test first: the candidate new answer ν(u_Q).
      Result<Tuple> head = disjunct.InstantiateHead(nu);
      if (!head.ok()) return head.status();
      if (answers->Contains(*head)) continue;
      // Is I ∪ ν(T_Q) partially closed? I is, so only ν(T_Q) can break V.
      RELCOMP_RETURN_IF_ERROR(InstantiateDelta(disjunct, *rels, nu, &delta));
      if (stats != nullptr) {
        ++stats->extensions;
        ++stats->cc_checks;
      }
      if (!prepared.SatisfiesCCsDelta(instance, delta)) continue;
      if (witness != nullptr) {
        witness->world = instance;
        witness->extension = PreparedSetting::WithDelta(instance, delta);
        witness->answer = *head;
        witness->note =
            "partially closed extension adds answer " + TupleToString(*head);
      }
      return false;
    }
  }
  return true;
}

}  // namespace relcomp
