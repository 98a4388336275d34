#include "core/enumerate.h"

#include <algorithm>
#include <map>

namespace relcomp {
namespace {

// Intersects `acc` with `other` (both sorted unique).
std::vector<Value> IntersectSorted(const std::vector<Value>& acc,
                                   const std::vector<Value>& other) {
  std::vector<Value> out;
  std::set_intersection(acc.begin(), acc.end(), other.begin(), other.end(),
                        std::back_inserter(out));
  return out;
}

// Accumulates a variable-to-finite-domain constraint map.
class DomainCollector {
 public:
  void Constrain(VarId var, const Domain& domain) {
    Touch(var);
    if (!domain.is_finite()) return;
    auto it = finite_.find(var.id);
    if (it == finite_.end()) {
      finite_.emplace(var.id, domain.values());
    } else {
      it->second = IntersectSorted(it->second, domain.values());
    }
  }

  void Touch(VarId var) { all_vars_.insert(var.id); }

  // Calls `emit(var, finite)` for every variable in id order, where
  // `finite` is the intersection of the finite domains of its columns, or
  // null when no finite domain constrains it (it ranges over all of Adom).
  template <typename Emit>
  void ForEach(Emit emit) {
    // LINT:waive(checkpoint-coverage, one pass over the collected variables)
    for (int32_t id : all_vars_) {
      auto it = finite_.find(id);
      emit(VarId{id}, it == finite_.end() ? nullptr : &it->second);
    }
  }

  VarCandidateList Build(const AdomContext& adom) {
    VarCandidateList out;
    ForEach([&](VarId var, std::vector<Value>* finite) {
      if (finite != nullptr) {
        out.emplace_back(var, std::move(*finite));
      } else {
        out.emplace_back(var, adom.values());
      }
    });
    return out;
  }

 private:
  std::set<int32_t> all_vars_;
  std::map<int32_t, std::vector<Value>> finite_;
};

DomainCollector CollectCqDomains(const ConjunctiveQuery& q,
                                 const DatabaseSchema& schema) {
  DomainCollector collector;
  // LINT:waive(checkpoint-coverage, scans the query atoms once)
  for (const RelAtom& atom : q.atoms()) {
    const RelationSchema* rel = schema.Find(atom.rel);
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (std::holds_alternative<VarId>(atom.args[i])) {
        VarId v = std::get<VarId>(atom.args[i]);
        if (rel != nullptr && i < rel->arity()) {
          collector.Constrain(v, rel->attribute(i).domain);
        } else {
          collector.Touch(v);
        }
      }
    }
  }
  // LINT:waive(checkpoint-coverage, scans the query builtins once)
  for (const CondAtom& b : q.builtins()) {
    if (std::holds_alternative<VarId>(b.lhs)) {
      collector.Touch(std::get<VarId>(b.lhs));
    }
    if (std::holds_alternative<VarId>(b.rhs)) {
      collector.Touch(std::get<VarId>(b.rhs));
    }
  }
  // LINT:waive(checkpoint-coverage, scans the query head once)
  for (const CTerm& t : q.head()) {
    if (std::holds_alternative<VarId>(t)) {
      collector.Touch(std::get<VarId>(t));
    }
  }
  return collector;
}

}  // namespace

VarCandidateList CInstanceVarCandidates(const CInstance& cinstance,
                                        const AdomContext& adom) {
  DomainCollector collector;
  // LINT:waive(checkpoint-coverage, scans the input c-instance once)
  for (const CTable& table : cinstance.tables()) {
    for (const CRow& row : table.rows()) {
      for (size_t i = 0; i < row.cells.size(); ++i) {
        if (std::holds_alternative<VarId>(row.cells[i])) {
          collector.Constrain(std::get<VarId>(row.cells[i]),
                              table.schema().attribute(i).domain);
        }
      }
      std::vector<VarId> cond_vars;
      row.condition.CollectVars(&cond_vars);
      for (VarId v : cond_vars) collector.Touch(v);
    }
  }
  return collector.Build(adom);
}

VarCandidateList CqVarCandidates(const ConjunctiveQuery& q,
                                 const DatabaseSchema& schema,
                                 const AdomContext& adom) {
  return CollectCqDomains(q, schema).Build(adom);
}

std::vector<OpenVarCandidate> CqVarCandidatesOpen(
    const ConjunctiveQuery& q, const DatabaseSchema& schema) {
  std::vector<OpenVarCandidate> out;
  CollectCqDomains(q, schema).ForEach(
      [&out](VarId var, std::vector<Value>* finite) {
        OpenVarCandidate entry;
        entry.var = var;
        entry.open = finite == nullptr;
        if (!entry.open) entry.values = std::move(*finite);
        out.push_back(std::move(entry));
      });
  return out;
}

CanonicalValuationEnumerator::CanonicalValuationEnumerator(
    std::vector<OpenVarCandidate> vars, std::vector<Value> base,
    std::vector<Value> fresh)
    : vars_(std::move(vars)),
      base_(std::move(base)),
      fresh_(std::move(fresh)),
      indices_(vars_.size(), 0),
      fresh_used_before_(vars_.size() + 1, 0) {
  // LINT:waive(checkpoint-coverage, constructor scan, bounded by #vars)
  for (const OpenVarCandidate& v : vars_) {
    if (!v.open && v.values.empty()) exhausted_ = true;
  }
  if (base_.empty() && fresh_.empty()) {
    // LINT:waive(checkpoint-coverage, constructor scan, bounded by #vars)
    for (const OpenVarCandidate& v : vars_) {
      if (v.open) exhausted_ = true;
    }
  }
}

size_t CanonicalValuationEnumerator::Limit(size_t level) const {
  const OpenVarCandidate& v = vars_[level];
  if (!v.open) return v.values.size();
  size_t fresh_avail =
      std::min(fresh_used_before_[level] + 1, fresh_.size());
  return base_.size() + fresh_avail;
}

Value CanonicalValuationEnumerator::At(size_t level, size_t index) const {
  const OpenVarCandidate& v = vars_[level];
  if (!v.open) return v.values[index];
  if (index < base_.size()) return base_[index];
  return fresh_[index - base_.size()];
}

void CanonicalValuationEnumerator::RecomputeFreshUsed() {
  fresh_used_before_[0] = 0;
  // LINT:waive(checkpoint-coverage, one pass over the variable levels)
  for (size_t i = 0; i < vars_.size(); ++i) {
    size_t used = fresh_used_before_[i];
    if (vars_[i].open && indices_[i] >= base_.size()) {
      used = std::max(used, indices_[i] - base_.size() + 1);
    }
    fresh_used_before_[i + 1] = used;
  }
}

bool CanonicalValuationEnumerator::Next(Valuation* mu) {
  if (exhausted_) return false;
  if (!started_) {
    started_ = true;
    std::fill(indices_.begin(), indices_.end(), 0);
    RecomputeFreshUsed();
    // LINT:waive(checkpoint-coverage, binds each variable once)
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (indices_[i] >= Limit(i)) {
        exhausted_ = true;
        return false;
      }
      mu->Bind(vars_[i].var, At(i, indices_[i]));
    }
    if (vars_.empty()) exhausted_ = true;
    return true;
  }
  size_t pos = vars_.size();
  // LINT:waive(checkpoint-coverage, radix carry bounded by the level count)
  while (pos > 0) {
    --pos;
    ++indices_[pos];
    RecomputeFreshUsed();
    if (indices_[pos] < Limit(pos)) {
      // Reset the suffix.
      bool ok = true;
      for (size_t j = pos + 1; j < vars_.size(); ++j) {
        indices_[j] = 0;
        RecomputeFreshUsed();
        if (indices_[j] >= Limit(j)) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        continue;  // suffix has an empty level; keep advancing at pos
      }
      RecomputeFreshUsed();
      for (size_t i = 0; i < vars_.size(); ++i) {
        mu->Bind(vars_[i].var, At(i, indices_[i]));
      }
      return true;
    }
    indices_[pos] = 0;
  }
  exhausted_ = true;
  return false;
}

CanonicalValuationEnumerator MakeCanonicalCqEnumerator(
    const ConjunctiveQuery& q, const DatabaseSchema& schema,
    const AdomContext& adom, const Instance& around) {
  std::vector<OpenVarCandidate> vars = CqVarCandidatesOpen(q, schema);
  const bool any_open =
      std::any_of(vars.begin(), vars.end(),
                  [](const OpenVarCandidate& v) { return v.open; });
  if (!any_open) {
    // Closed lists only: neither the base nor the fresh pool is read.
    return CanonicalValuationEnumerator(std::move(vars), {}, {});
  }
  // Values of `around` are pinned (they occur in the instance), so they
  // join the base; the remaining fresh constants stay interchangeable.
  const std::vector<Value> instance_values = around.ActiveDomain();
  std::vector<Value> base;
  base.reserve(adom.base().size() + instance_values.size());
  std::set_union(adom.base().begin(), adom.base().end(),
                 instance_values.begin(), instance_values.end(),
                 std::back_inserter(base));
  std::vector<Value> fresh;
  // LINT:waive(checkpoint-coverage, filters the fresh constants once)
  for (const Value& f : adom.fresh()) {
    if (!std::binary_search(base.begin(), base.end(), f)) fresh.push_back(f);
  }
  return CanonicalValuationEnumerator(std::move(vars), std::move(base),
                                      std::move(fresh));
}

ValuationEnumerator::ValuationEnumerator(VarCandidateList vars)
    : vars_(std::move(vars)), indices_(vars_.size(), 0) {
  // LINT:waive(checkpoint-coverage, constructor scan, bounded by #vars)
  for (const auto& [var, candidates] : vars_) {
    if (candidates.empty()) exhausted_ = true;
  }
}

bool ValuationEnumerator::Next(Valuation* mu) {
  if (exhausted_) return false;
  if (!started_) {
    started_ = true;
    // LINT:waive(checkpoint-coverage, binds each variable once)
    for (size_t i = 0; i < vars_.size(); ++i) {
      current_.Bind(vars_[i].first, vars_[i].second[0]);
    }
    if (vars_.empty()) exhausted_ = true;  // single empty valuation
    *mu = current_;
    return true;
  }
  size_t pos = 0;
  // LINT:waive(checkpoint-coverage, radix carry bounded by the level count)
  while (pos < vars_.size()) {
    if (++indices_[pos] < vars_[pos].second.size()) break;
    indices_[pos] = 0;
    ++pos;
  }
  if (pos == vars_.size()) {
    exhausted_ = true;
    return false;
  }
  // LINT:waive(checkpoint-coverage, rebinds a bounded prefix of variables)
  for (size_t i = 0; i <= pos; ++i) {
    current_.Bind(vars_[i].first, vars_[i].second[indices_[i]]);
  }
  *mu = current_;
  return true;
}

uint64_t ValuationEnumerator::TotalCount() const {
  uint64_t total = 1;
  // LINT:waive(checkpoint-coverage, product over the var list)
  for (const auto& [var, candidates] : vars_) {
    total *= candidates.size();
  }
  return total;
}

TupleEnumerator::TupleEnumerator(const RelationSchema& schema,
                                 const AdomContext& adom)
    : indices_(schema.arity(), 0) {
  // LINT:waive(checkpoint-coverage, constructor scan over the schema arity)
  for (const Attribute& attr : schema.attributes()) {
    candidates_.push_back(&adom.Candidates(attr.domain));
    if (candidates_.back()->empty()) exhausted_ = true;
  }
}

bool TupleEnumerator::Next(Tuple* t) {
  if (exhausted_) return false;
  if (!started_) {
    started_ = true;
    t->resize(candidates_.size());
    // LINT:waive(checkpoint-coverage, writes each tuple position once)
    for (size_t i = 0; i < candidates_.size(); ++i) {
      (*t)[i] = (*candidates_[i])[0];
    }
    if (candidates_.empty()) exhausted_ = true;  // nullary: single tuple
    return true;
  }
  size_t pos = 0;
  // LINT:waive(checkpoint-coverage, radix carry bounded by the arity)
  while (pos < indices_.size()) {
    if (++indices_[pos] < candidates_[pos]->size()) break;
    indices_[pos] = 0;
    ++pos;
  }
  if (pos == indices_.size()) {
    exhausted_ = true;
    return false;
  }
  t->resize(candidates_.size());
  // LINT:waive(checkpoint-coverage, writes each tuple position once)
  for (size_t i = 0; i < candidates_.size(); ++i) {
    (*t)[i] = (*candidates_[i])[indices_[i]];
  }
  return true;
}

uint64_t TupleEnumerator::TotalCount() const {
  uint64_t total = 1;
  // LINT:waive(checkpoint-coverage, product over the arity)
  for (const std::vector<Value>* c : candidates_) total *= c->size();
  return total;
}

ModEnumerator::ModEnumerator(const CInstance& cinstance,
                             const PreparedSetting& prepared,
                             const AdomContext& adom,
                             const SearchOptions& options, SearchStats* stats)
    : cinstance_(cinstance),
      prepared_(prepared),
      options_(options),
      stats_(stats),
      valuations_(CInstanceVarCandidates(cinstance, adom)),
      checkpoint_(options_, "Mod(T, Dm, V) enumeration", "mod-enum") {}

Result<bool> ModEnumerator::Next(Valuation* mu, Instance* world) {
  Valuation local_mu;
  Valuation* mu_ptr = mu != nullptr ? mu : &local_mu;
  while (valuations_.Next(mu_ptr)) {
    RELCOMP_RETURN_IF_ERROR(checkpoint_.Tick());
    if (stats_ != nullptr) ++stats_->valuations;
    Result<Instance> candidate = cinstance_.Apply(*mu_ptr);
    if (!candidate.ok()) return candidate.status();
    if (stats_ != nullptr) ++stats_->cc_checks;
    Result<bool> closed = prepared_.SatisfiesCCs(*candidate);
    if (!closed.ok()) return closed.status();
    if (!*closed) continue;
    // Structural key: the sorted rows of every relation. A rendered key
    // would take the symbol interner's lock per value and merge Int(1)
    // with Sym("1").
    WorldKey key;
    key.reserve(candidate->relations().size());
    // LINT:waive(checkpoint-coverage, one row vector per relation)
    for (const Relation& rel : candidate->relations()) {
      key.push_back(rel.rows());
    }
    if (!seen_.insert(std::move(key)).second) continue;
    if (stats_ != nullptr) ++stats_->worlds;
    if (world != nullptr) *world = std::move(candidate).value();
    return true;
  }
  return false;
}

}  // namespace relcomp
