// The reference decider loops that property_test's ModOracle compares the
// library against. They are the deciders' loops in their plain form:
//  - Mod(T, Dm, V) by the odometer over every variable's full candidate
//    list, CInstance::Apply on each valuation, the free SatisfiesCCs(I, Dm,
//    V) on each world, and a structural dedup;
//  - the ground check by the canonical tableau valuations ν around each
//    instance I (I's values pinned), the builtins, the head test ν(u_Q) ∉
//    Q(I), and the delta check of I ∪ ν(T_Q);
// and the deciders built from those two loops. No search budget, deadline
// or statistic: the inputs are small.
#ifndef RELCOMP_TESTS_REFERENCE_DECIDERS_H_
#define RELCOMP_TESTS_REFERENCE_DECIDERS_H_

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/adom.h"
#include "core/enumerate.h"
#include "core/prepared_setting.h"
#include "core/rcqp.h"
#include "core/types.h"

namespace relcomp {
namespace reference {

/// Every variable of T with its candidates: the intersection of the finite
/// domains of its columns, or all of Adom (null here) when no finite domain
/// constrains it, as for a variable that occurs only in conditions.
inline std::map<int32_t, std::optional<std::vector<Value>>> VarCandidates(
    const CInstance& t) {
  std::map<int32_t, std::optional<std::vector<Value>>> out;
  for (const CTable& table : t.tables()) {
    for (const CRow& row : table.rows()) {
      std::vector<VarId> cond_vars;
      row.condition.CollectVars(&cond_vars);
      for (VarId v : cond_vars) out.try_emplace(v.id);
      for (size_t i = 0; i < row.cells.size(); ++i) {
        if (!std::holds_alternative<VarId>(row.cells[i])) continue;
        std::optional<std::vector<Value>>& acc =
            out[std::get<VarId>(row.cells[i]).id];
        const Domain& domain = table.schema().attribute(i).domain;
        if (!domain.is_finite()) continue;
        if (!acc.has_value()) {
          acc = domain.values();
          continue;
        }
        std::vector<Value> both;
        std::set_intersection(acc->begin(), acc->end(),
                              domain.values().begin(), domain.values().end(),
                              std::back_inserter(both));
        acc = std::move(both);
      }
    }
  }
  return out;
}

/// The worlds of Mod(T, Dm, V): every valuation of the odometer, applied,
/// checked by the free SatisfiesCCs and deduplicated by its sorted rows.
class ModWalk {
 public:
  /// Sees every valuation whose world satisfies V, duplicates included.
  using Observer = std::function<void(const Valuation&, const Instance&)>;

  ModWalk(const CInstance& t, const PreparedSetting& prepared,
          const AdomContext& adom, Observer observer = nullptr)
      : t_(t), prepared_(prepared), observer_(std::move(observer)) {
    for (auto& [id, values] : VarCandidates(t)) {
      lists_.push_back(values.has_value() ? *values : adom.values());
      var_ids_.push_back(id);
    }
    std::vector<CanonicalValuationEnumerator::Level> levels;
    // Highest id first, so the lowest id advances fastest.
    for (size_t i = lists_.size(); i > 0; --i) {
      levels.push_back({VarId{var_ids_[i - 1]}, &lists_[i - 1]});
    }
    odometer_.emplace(std::move(levels));
  }

  /// The next distinct world and the first valuation that gave it; false
  /// when none is left.
  bool Next(Valuation* mu, Instance* world) {
    Valuation local;
    Valuation* nu = mu != nullptr ? mu : &local;
    while (odometer_->Next(nu)) {
      Instance candidate = t_.Apply(*nu).value();
      if (!SatisfiesCCs(candidate, prepared_.dm(), prepared_.ccs()).value()) {
        continue;
      }
      if (observer_) observer_(*nu, candidate);
      std::vector<std::vector<Tuple>> key;
      for (const Relation& rel : candidate.relations()) {
        key.push_back(rel.rows());
      }
      if (!seen_.insert(std::move(key)).second) continue;
      if (world != nullptr) *world = std::move(candidate);
      return true;
    }
    return false;
  }

 private:
  const CInstance& t_;
  const PreparedSetting& prepared_;
  Observer observer_;
  std::vector<std::vector<Value>> lists_;
  std::vector<int32_t> var_ids_;
  std::optional<CanonicalValuationEnumerator> odometer_;
  std::set<std::vector<std::vector<Tuple>>> seen_;
};

/// Every world of Mod(T, Dm, V), in the reference's order.
inline std::vector<Instance> Worlds(const CInstance& t,
                                    const PreparedSetting& prepared,
                                    const AdomContext& adom) {
  std::vector<Instance> out;
  ModWalk walk(t, prepared, adom);
  Instance world;
  while (walk.Next(nullptr, &world)) out.push_back(world);
  return out;
}

/// The ground check of one instance: its full closure check, then Q(I) and
/// every canonical ν around I.
inline Result<bool> IsCompleteGround(const Query& q, const Instance& instance,
                                     const PreparedSetting& prepared,
                                     const AdomContext& adom,
                                     CompletenessWitness* witness = nullptr) {
  if (q.language() == QueryLanguage::kFO ||
      q.language() == QueryLanguage::kFP) {
    return Status::Undecidable("no tableau disjuncts");
  }
  Result<bool> closed = SatisfiesCCs(instance, prepared.dm(), prepared.ccs());
  if (!closed.ok()) return closed.status();
  if (!*closed) return false;
  const Relation answers = EvalOverAdom(q, instance, adom);
  Result<std::vector<ConjunctiveQuery>> disjuncts = q.Disjuncts();
  if (!disjuncts.ok()) return disjuncts.status();
  for (const ConjunctiveQuery& disjunct : *disjuncts) {
    if (!disjunct.BuiltinsSatisfiable()) continue;
    CanonicalValuationEnumerator nus =
        MakeCanonicalCqEnumerator(disjunct, prepared.schema(), adom, instance);
    Valuation nu;
    while (nus.Next(&nu)) {
      Result<bool> builtins_ok = disjunct.BuiltinsSatisfied(nu);
      if (!builtins_ok.ok()) return builtins_ok.status();
      if (!*builtins_ok) continue;
      Result<Tuple> head = disjunct.InstantiateHead(nu);
      if (!head.ok()) return head.status();
      if (answers.Contains(*head)) continue;
      std::vector<DeltaRow> delta;
      for (const RelAtom& atom : disjunct.atoms()) {
        DeltaRow row;
        row.rel = static_cast<size_t>(prepared.schema().IndexOf(atom.rel));
        for (const CTerm& term : atom.args) {
          row.tuple.push_back(*nu.Resolve(term));
        }
        delta.push_back(std::move(row));
      }
      if (!prepared.SatisfiesCCsDelta(instance, delta)) continue;
      if (witness != nullptr) {
        witness->world = instance;
        witness->extension = PreparedSetting::WithDelta(instance, delta);
        witness->answer = *head;
      }
      return false;
    }
  }
  return true;
}

// The deciders over Mod(T, Dm, V) take its worlds, walked once by the
// caller (Worlds above), and the Adom they were walked over.

inline Result<bool> RcdpStrong(const Query& q,
                               const std::vector<Instance>& worlds,
                               const PreparedSetting& prepared,
                               const AdomContext& adom) {
  for (const Instance& world : worlds) {
    Result<bool> complete = IsCompleteGround(q, world, prepared, adom);
    if (!complete.ok() || !*complete) return complete;
  }
  return !worlds.empty();
}

inline Result<bool> RcdpViable(const Query& q,
                               const std::vector<Instance>& worlds,
                               const PreparedSetting& prepared,
                               const AdomContext& adom) {
  for (const Instance& world : worlds) {
    Result<bool> complete = IsCompleteGround(q, world, prepared, adom);
    if (!complete.ok() || *complete) return complete;
  }
  return false;
}

/// Weak model: the certain answers over Mod(T) against those over every
/// single-tuple partially closed extension of every world (Lemma 5.2).
/// Once the extensions' certain answers shrink into the certain answers,
/// they can never leave them again.
inline Result<bool> RcdpWeak(const Query& q,
                             const std::vector<Instance>& worlds,
                             const PreparedSetting& prepared,
                             const AdomContext& adom) {
  if (worlds.empty()) return false;
  std::optional<Relation> certain;
  for (const Instance& world : worlds) {
    const Relation answers = EvalOverAdom(q, world, adom);
    certain = certain.has_value() ? certain->Intersect(answers) : answers;
  }
  std::optional<Relation> extension_certain;
  std::vector<DeltaRow> delta(1);
  for (const Instance& world : worlds) {
    for (size_t r = 0; r < prepared.schema().size(); ++r) {
      CanonicalValuationEnumerator tuples =
          CandidateTuples(prepared.schema().relations()[r], adom);
      delta[0].rel = r;
      while (tuples.Next(&delta[0].tuple)) {
        if (world.relations()[r].Contains(delta[0].tuple)) continue;
        if (!prepared.SatisfiesCCsDelta(world, delta)) continue;
        const Relation answers =
            EvalOverAdom(q, PreparedSetting::WithDelta(world, delta), adom);
        extension_certain = extension_certain.has_value()
                                ? extension_certain->Intersect(answers)
                                : answers;
        if (extension_certain->IsSubsetOf(*certain)) return true;
      }
    }
  }
  return !extension_certain.has_value();
}

/// Lemma 4.7(b): a complete world is minimal iff no single-tuple removal
/// leaves it complete.
inline Result<bool> MinimalCompleteWorld(const Query& q,
                                         const Instance& instance,
                                         const PreparedSetting& prepared,
                                         const AdomContext& adom) {
  Result<bool> complete = IsCompleteGround(q, instance, prepared, adom);
  if (!complete.ok() || !*complete) return complete;
  for (size_t r = 0; r < instance.relations().size(); ++r) {
    for (const Tuple& t : instance.relations()[r].rows()) {
      Instance smaller = instance;
      smaller.relations()[r].Erase(t);
      Result<bool> sub = IsCompleteGround(q, smaller, prepared, adom);
      if (!sub.ok()) return sub.status();
      if (*sub) return false;
    }
  }
  return true;
}

inline Result<bool> MinpStrong(const Query& q,
                               const std::vector<Instance>& worlds,
                               const PreparedSetting& prepared,
                               const AdomContext& adom) {
  for (const Instance& world : worlds) {
    Result<bool> minimal = MinimalCompleteWorld(q, world, prepared, adom);
    if (!minimal.ok() || !*minimal) return minimal;
  }
  return !worlds.empty();
}

inline Result<bool> MinpViable(const Query& q,
                               const std::vector<Instance>& worlds,
                               const PreparedSetting& prepared,
                               const AdomContext& adom) {
  for (const Instance& world : worlds) {
    Result<bool> minimal = MinimalCompleteWorld(q, world, prepared, adom);
    if (!minimal.ok() || *minimal) return minimal;
  }
  return false;
}

inline bool IsConsistent(const PreparedSetting& prepared, const CInstance& t) {
  const AdomContext adom = prepared.BuildAdom(t, nullptr);
  return ModWalk(t, prepared, adom).Next(nullptr, nullptr);
}

inline Result<bool> RcdpStrongGround(const Query& q, const Instance& instance,
                                     const PreparedSetting& prepared) {
  const AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  return IsCompleteGround(q, instance, prepared, adom);
}

inline Result<bool> MinpStrongGround(const Query& q, const Instance& instance,
                                     const PreparedSetting& prepared) {
  const AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  return MinimalCompleteWorld(q, instance, prepared, adom);
}

/// The bounded strong RCQP search: ExtensionSearch's walk from ∅, each node
/// checked in full and then by the reference ground check.
inline Result<RcqpSearchResult> RcqpStrongBounded(
    const Query& q, const PreparedSetting& prepared, size_t max_tuples) {
  const AdomContext adom = prepared.BuildAdom(CInstance(prepared.schema()), &q);
  ExtensionSearch search(prepared, adom, max_tuples, {}, "reference RCQP",
                         "reference");
  RcqpSearchResult result;
  using Step = ExtensionSearch::Step;
  Status status = search.Run(
      Instance(prepared.schema()),
      [&](const Instance& candidate, size_t) -> Result<Step> {
        Result<bool> closed =
            SatisfiesCCs(candidate, prepared.dm(), prepared.ccs());
        if (!closed.ok()) return closed.status();
        if (!*closed) return Step::kPrune;
        Result<bool> complete = IsCompleteGround(q, candidate, prepared, adom);
        if (!complete.ok()) return complete.status();
        if (!*complete) return Step::kDescend;
        result.found = true;
        result.witness = candidate;
        return Step::kStop;
      });
  if (!status.ok()) return status;
  result.bound_exhausted = !result.found;
  return result;
}

}  // namespace reference
}  // namespace relcomp

#endif  // RELCOMP_TESTS_REFERENCE_DECIDERS_H_
