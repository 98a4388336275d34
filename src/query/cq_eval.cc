// Backtracking-join evaluator for conjunctive queries. Atoms are processed
// left to right; builtins are checked as soon as both sides are bound. The
// query is validated once, at entry, so every head and builtin variable is
// bound once every atom is.
#include <optional>

#include "query/cq.h"

namespace relcomp {
namespace {

class CqEvaluator {
 public:
  CqEvaluator(const ConjunctiveQuery& q, const Instance& instance)
      : q_(q), instance_(instance) {}

  Result<Relation> Run() {
    RELCOMP_RETURN_IF_ERROR(q_.Validate(instance_.schema()));
    Relation out(RelationSchema::Anonymous("out", q_.OutputArity()));
    Recurse(0, &out);
    return out;
  }

 private:
  void Recurse(size_t atom_index, Relation* out) {
    if (atom_index == q_.atoms().size()) {
      if (*q_.BuiltinsSatisfied(binding_)) {
        out->Insert(q_.InstantiateHead(binding_).value());
      }
      return;
    }
    const RelAtom& atom = q_.atoms()[atom_index];
    const Relation& rel = instance_.at(atom.rel);
    for (const Tuple& tuple : rel.rows()) {
      std::vector<VarId> newly_bound;
      if (!TryUnify(atom, tuple, &newly_bound)) {
        Rollback(newly_bound);
        continue;
      }
      if (!q_.BuiltinsPossiblySatisfied(binding_)) {
        Rollback(newly_bound);
        continue;
      }
      Recurse(atom_index + 1, out);
      Rollback(newly_bound);
    }
  }

  // Attempts to unify the atom's terms with a concrete tuple, extending the
  // current binding. Records freshly bound vars for rollback.
  bool TryUnify(const RelAtom& atom, const Tuple& tuple,
                std::vector<VarId>* newly_bound) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const CTerm& term = atom.args[i];
      if (std::holds_alternative<Value>(term)) {
        if (std::get<Value>(term) != tuple[i]) return false;
        continue;
      }
      VarId var = std::get<VarId>(term);
      std::optional<Value> bound = binding_.Get(var);
      if (bound.has_value()) {
        if (*bound != tuple[i]) return false;
      } else {
        binding_.Bind(var, tuple[i]);
        newly_bound->push_back(var);
      }
    }
    return true;
  }

  void Rollback(const std::vector<VarId>& vars) {
    for (VarId v : vars) binding_.Unbind(v);
  }

  const ConjunctiveQuery& q_;
  const Instance& instance_;
  Valuation binding_;
};

}  // namespace

Result<Relation> ConjunctiveQuery::Eval(const Instance& instance) const {
  CqEvaluator evaluator(*this, instance);
  return evaluator.Run();
}

}  // namespace relcomp
