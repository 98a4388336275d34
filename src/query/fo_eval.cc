// Active-domain evaluator for FO queries: quantifiers and free variables
// range over adom(I) ∪ constants(Q) ∪ extra_domain. The query is validated
// once, at entry, so every atom's relation exists with its arity and every
// variable is bound when it is read.
#include <algorithm>

#include "query/fo.h"

namespace relcomp {
namespace {

class FoEvaluator {
 public:
  FoEvaluator(const Instance& instance, std::vector<Value> domain)
      : instance_(instance), domain_(std::move(domain)) {}

  bool EvalFormula(const FoFormula& f, Valuation* binding) {
    switch (f.kind()) {
      case FoFormula::Kind::kAtom: {
        Tuple t;
        t.reserve(f.atom().args.size());
        for (const CTerm& term : f.atom().args) {
          t.push_back(*binding->Resolve(term));
        }
        return instance_.at(f.atom().rel).Contains(t);
      }
      case FoFormula::Kind::kCmp: {
        const bool eq =
            *binding->Resolve(f.cmp().lhs) == *binding->Resolve(f.cmp().rhs);
        return f.cmp().neq ? !eq : eq;
      }
      case FoFormula::Kind::kAnd:
        for (const FoPtr& child : f.children()) {
          if (!EvalFormula(*child, binding)) return false;
        }
        return true;
      case FoFormula::Kind::kOr:
        for (const FoPtr& child : f.children()) {
          if (EvalFormula(*child, binding)) return true;
        }
        return false;
      case FoFormula::Kind::kNot:
        return !EvalFormula(*f.children()[0], binding);
      case FoFormula::Kind::kExists:
        return EvalQuantifier(f, 0, true, binding);
      case FoFormula::Kind::kForall:
        return EvalQuantifier(f, 0, false, binding);
    }
    return false;
  }

 private:
  bool EvalQuantifier(const FoFormula& f, size_t var_index, bool exists,
                      Valuation* binding) {
    if (var_index == f.bound_vars().size()) {
      return EvalFormula(*f.children()[0], binding);
    }
    const VarId var = f.bound_vars()[var_index];
    // A quantifier may shadow a head variable or an outer quantifier's:
    // the outer binding comes back when this scope ends.
    const std::optional<Value> outer = binding->Get(var);
    bool result = !exists;
    for (const Value& v : domain_) {
      binding->Bind(var, v);
      if (EvalQuantifier(f, var_index + 1, exists, binding) == exists) {
        result = exists;
        break;
      }
    }
    if (outer.has_value()) {
      binding->Bind(var, *outer);
    } else {
      binding->Unbind(var);
    }
    return result;
  }

  const Instance& instance_;
  std::vector<Value> domain_;
};

}  // namespace

Result<Relation> FoQuery::Eval(const Instance& instance,
                               const std::vector<Value>& extra_domain) const {
  RELCOMP_RETURN_IF_ERROR(Validate(instance.schema()));
  std::vector<Value> domain = instance.ActiveDomain();
  std::vector<Value> consts = Constants();
  domain.insert(domain.end(), consts.begin(), consts.end());
  domain.insert(domain.end(), extra_domain.begin(), extra_domain.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());

  FoEvaluator evaluator(instance, domain);
  Relation out(RelationSchema::Anonymous("out", head_.size()));

  // Enumerate assignments of the head variables over the domain.
  Valuation binding;
  Tuple current(head_.size());
  // Boolean query: no head variables.
  if (head_.empty()) {
    if (evaluator.EvalFormula(*formula_, &binding)) out.Insert(Tuple{});
    return out;
  }
  std::vector<size_t> idx(head_.size(), 0);
  if (domain.empty()) return out;
  while (true) {
    for (size_t i = 0; i < head_.size(); ++i) {
      binding.Bind(head_[i], domain[idx[i]]);
      current[i] = domain[idx[i]];
    }
    if (evaluator.EvalFormula(*formula_, &binding)) out.Insert(current);
    // Advance the odometer.
    size_t pos = 0;
    while (pos < idx.size()) {
      if (++idx[pos] < domain.size()) break;
      idx[pos] = 0;
      ++pos;
    }
    if (pos == idx.size()) break;
  }
  return out;
}

}  // namespace relcomp
