#include "core/ground.h"

#include <algorithm>

namespace relcomp {
namespace {

// ν(T_Q) as delta rows, reusing `delta`'s storage; `rels` holds each atom's
// schema index. ν binds every variable of the tableau.
void InstantiateDelta(const ConjunctiveQuery& q,
                      const std::vector<size_t>& rels, const Valuation& nu,
                      std::vector<DeltaRow>* delta) {
  delta->resize(q.atoms().size());
  // LINT:waive(checkpoint-coverage, one row per tableau atom)
  for (size_t a = 0; a < q.atoms().size(); ++a) {
    DeltaRow& row = (*delta)[a];
    row.rel = rels[a];
    row.tuple.clear();
    for (const CTerm& term : q.atoms()[a].args) {
      row.tuple.push_back(*nu.Resolve(term));
    }
  }
}

// True when `phi` binds its variables to pairwise distinct values.
bool Injective(const Valuation& phi, size_t size) {
  std::vector<Value> images;
  // LINT:waive(checkpoint-coverage, one image per fresh constant of a ν)
  for (size_t j = 0; j < size; ++j) {
    images.push_back(*phi.Get(VarId{static_cast<int32_t>(j)}));
  }
  std::sort(images.begin(), images.end());
  return std::adjacent_find(images.begin(), images.end()) == images.end();
}

}  // namespace

AdmissibleValuations::AdmissibleValuations(const ConjunctiveQuery& disjunct,
                                           const PreparedSetting& prepared,
                                           const AdomContext& adom)
    : disjunct_(disjunct),
      prepared_(prepared),
      empty_(prepared.schema()),
      // Fresh constants are interchangeable in this existential search, so
      // a symmetry-broken enumeration suffices. Contradictory builtins need
      // none: Next returns before enumerating, and Adom stays unread.
      nus_(disjunct.BuiltinsSatisfiable()
               ? MakeCanonicalCqEnumerator(disjunct, prepared.schema(), adom,
                                           empty_)
               : CanonicalValuationEnumerator(
                     std::vector<CanonicalValuationEnumerator::Level>{})) {
  // LINT:waive(checkpoint-coverage, one lookup per tableau atom)
  for (const RelAtom& atom : disjunct.atoms()) {
    rels_.push_back(static_cast<size_t>(prepared.schema().IndexOf(atom.rel)));
  }
}

Result<bool> AdmissibleValuations::Next(SearchCheckpoint* checkpoint,
                                        SearchStats* stats, Valuation* nu,
                                        std::vector<DeltaRow>* delta) {
  // No ν satisfies contradictory builtins, so the disjunct adds nothing.
  if (!disjunct_.BuiltinsSatisfiable()) return false;
  while (nus_.Next(nu)) {
    RELCOMP_RETURN_IF_ERROR(checkpoint->Tick());
    if (stats != nullptr) ++stats->valuations;
    if (!*disjunct_.BuiltinsSatisfied(*nu)) continue;
    InstantiateDelta(disjunct_, rels_, *nu, delta);
    if (stats != nullptr) ++stats->cc_checks;
    if (prepared_.SatisfiesCCsDelta(empty_, *delta)) return true;
  }
  return false;
}

GroundCheck::GroundCheck(const Query& q, const PreparedSetting& prepared,
                         const AdomContext& adom)
    : q_(&q),
      prepared_(&prepared),
      adom_(&adom),
      disjuncts_(q.Disjuncts().value()) {
  const std::vector<Value>& fresh = adom.fresh();
  // LINT:waive(checkpoint-coverage, one entry per fresh constant)
  for (size_t i = 0; i < fresh.size(); ++i) {
    fresh_index_.emplace_back(fresh[i], i);
  }
  std::sort(fresh_index_.begin(), fresh_index_.end());
}

int GroundCheck::FreshIndex(const Value& v) const {
  auto it = std::lower_bound(
      fresh_index_.begin(), fresh_index_.end(), v,
      [](const std::pair<Value, size_t>& entry, const Value& value) {
        return entry.first < value;
      });
  if (it == fresh_index_.end() || it->first != v) return -1;
  return static_cast<int>(it->second);
}

Result<bool> GroundCheck::FindAdmissible(SearchCheckpoint* checkpoint,
                                         SearchStats* stats) {
  Valuation nu;
  std::vector<DeltaRow> delta;
  while (true) {
    if (walk_ == nullptr) {
      if (next_disjunct_ == disjuncts_.size()) return false;
      walk_ = std::make_unique<AdmissibleValuations>(
          disjuncts_[next_disjunct_++], *prepared_, *adom_);
    }
    Result<bool> found = walk_->Next(checkpoint, stats, &nu, &delta);
    if (!found.ok()) return found.status();
    if (!*found) {
      walk_.reset();
      continue;
    }
    Tuple head = disjuncts_[next_disjunct_ - 1].InstantiateHead(nu).value();
    size_t fresh = 0;
    // LINT:waive(checkpoint-coverage, one slot per variable of ν)
    for (size_t v = 0; v < nu.num_slots(); ++v) {
      const std::optional<Value> value = nu.Get(VarId{static_cast<int32_t>(v)});
      if (!value.has_value()) continue;
      fresh = std::max(fresh, static_cast<size_t>(FreshIndex(*value) + 1));
    }
    admissible_.push_back({std::move(delta), std::move(head), fresh});
    return true;
  }
}

Result<bool> GroundCheck::IsComplete(const Instance& closed,
                                     const SearchOptions& options,
                                     SearchStats* stats,
                                     CompletenessWitness* witness) {
  if (stats != nullptr) ++stats->query_evals;
  const Relation answers = EvalOverAdom(*q_, closed, *adom_);

  // The fresh constants I mentions, and the rest in adom.fresh() order: a
  // ν's renamings map its fresh constants injectively onto the first, or
  // onto the next unused one of the second, as the canonical enumeration
  // around I would bind them.
  std::vector<Value> pinned;
  // LINT:waive(checkpoint-coverage, one pass over the instance's values)
  for (const Relation& rel : closed.relations()) {
    for (const Tuple& t : rel.rows()) {
      for (const Value& v : t) {
        if (FreshIndex(v) >= 0) pinned.push_back(v);
      }
    }
  }
  std::sort(pinned.begin(), pinned.end());
  pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  std::vector<Value> unused;
  if (!pinned.empty()) {
    // LINT:waive(checkpoint-coverage, filters the fresh constants once)
    for (const Value& f : adom_->fresh()) {
      if (!std::binary_search(pinned.begin(), pinned.end(), f)) {
        unused.push_back(f);
      }
    }
  }

  SearchCheckpoint checkpoint(options, "ground completeness search", "ground");
  // Is I ∪ Δ partially closed with the new answer `head`? I is, so only Δ
  // can break V.
  auto extends = [&](const std::vector<DeltaRow>& delta, const Tuple& head) {
    if (answers.Contains(head)) return false;
    if (stats != nullptr) {
      ++stats->extensions;
      ++stats->cc_checks;
    }
    if (!prepared_->SatisfiesCCsDelta(closed, delta)) return false;
    if (witness != nullptr) {
      witness->world = closed;
      witness->extension = PreparedSetting::WithDelta(closed, delta);
      witness->answer = head;
      witness->note =
          "partially closed extension adds answer " + TupleToString(head);
    }
    return true;
  };
  std::vector<DeltaRow> renamed_delta;
  Tuple renamed_head;
  for (size_t i = 0;; ++i) {
    if (i == admissible_.size()) {
      Result<bool> found = FindAdmissible(&checkpoint, stats);
      if (!found.ok()) return found.status();
      if (!*found) break;
    }
    const Admissible& nu = admissible_[i];
    if (pinned.empty() || nu.fresh == 0) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      if (extends(nu.delta, nu.head)) return false;
      continue;
    }
    std::vector<OpenVarCandidate> fresh_of_nu(nu.fresh);
    for (size_t j = 0; j < nu.fresh; ++j) {
      fresh_of_nu[j] = {VarId{static_cast<int32_t>(j)}, {}, true};
    }
    CanonicalValuationEnumerator renamings(std::move(fresh_of_nu), pinned,
                                           unused);
    Valuation phi;
    auto rename = [&](const Value& v) {
      const int j = FreshIndex(v);
      return j >= 0 && static_cast<size_t>(j) < nu.fresh ? *phi.Get(VarId{j})
                                                          : v;
    };
    while (renamings.Next(&phi)) {
      if (!Injective(phi, nu.fresh)) continue;
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      renamed_delta = nu.delta;
      for (DeltaRow& row : renamed_delta) {
        for (Value& v : row.tuple) v = rename(v);
      }
      renamed_head = nu.head;
      for (Value& v : renamed_head) v = rename(v);
      if (extends(renamed_delta, renamed_head)) return false;
    }
  }
  return true;
}

}  // namespace relcomp
