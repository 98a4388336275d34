// Conjunctive queries with equality and inequality (the paper's CQ): built
// from relation atoms, =, ≠, closed under ∧ and ∃. A CQ doubles as its own
// tableau query (T_Q, u_Q): `atoms()` is the tableau and `head()` the output
// summary, which is how the RCDP/MINP characterizations (Lemmas 4.2/4.3) use
// it to generate candidate extensions ν(T_Q).
#ifndef RELCOMP_QUERY_CQ_H_
#define RELCOMP_QUERY_CQ_H_

#include <string>
#include <vector>

#include "ctable/condition.h"
#include "data/instance.h"
#include "data/schema.h"
#include "util/status.h"

namespace relcomp {

/// A relation atom R(t1, ..., tk); terms are variables or constants.
struct RelAtom {
  std::string rel;
  std::vector<CTerm> args;

  std::string ToString() const;
};

/// A conjunctive query: head (output summary), relation atoms, and built-in
/// (in)equality atoms.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;
  ConjunctiveQuery(std::vector<CTerm> head, std::vector<RelAtom> atoms,
                   std::vector<CondAtom> builtins = {})
      : head_(std::move(head)),
        atoms_(std::move(atoms)),
        builtins_(std::move(builtins)) {}

  const std::vector<CTerm>& head() const { return head_; }
  const std::vector<RelAtom>& atoms() const { return atoms_; }
  const std::vector<CondAtom>& builtins() const { return builtins_; }
  size_t OutputArity() const { return head_.size(); }

  std::vector<CTerm>& mutable_head() { return head_; }
  std::vector<RelAtom>& mutable_atoms() { return atoms_; }
  std::vector<CondAtom>& mutable_builtins() { return builtins_; }

  /// Q(I): evaluates by backtracking join. Fails on unknown relations, arity
  /// mismatches, or unsafe queries (head/builtin variable not bound by any
  /// relation atom).
  Result<Relation> Eval(const Instance& instance) const;

  /// Checks well-formedness against `schema` (relations exist, arities match,
  /// safety). OK status if valid.
  Status Validate(const DatabaseSchema& schema) const;

  /// Distinct variables (head, atoms, builtins), sorted by id.
  std::vector<VarId> Vars() const;
  /// Constants appearing anywhere in the query (sorted, unique).
  std::vector<Value> Constants() const;

  /// ν(T_Q): instantiates the tableau under a total valuation, producing the
  /// set of ground tuples per relation as an Instance over `schema`.
  /// Fails if a variable is unbound.
  Result<Instance> InstantiateTableau(const Valuation& nu,
                                      const DatabaseSchema& schema) const;

  /// ν(u_Q): instantiates the head under a total valuation.
  Result<Tuple> InstantiateHead(const Valuation& nu) const;

  /// True if all builtins with both sides bound under `nu` hold; atoms with
  /// unbound sides are skipped (three-valued, used for pruning).
  bool BuiltinsPossiblySatisfied(const Valuation& nu) const;
  /// True if all builtins hold under a total valuation.
  Result<bool> BuiltinsSatisfied(const Valuation& nu) const;
  /// False when no valuation satisfies the builtins: the `=` atoms put two
  /// distinct constants in one class, or a `≠` atom joins a class to
  /// itself. True otherwise (domains are not consulted).
  bool BuiltinsSatisfiable() const;

  std::string ToString() const;

 private:
  std::vector<CTerm> head_;
  std::vector<RelAtom> atoms_;
  std::vector<CondAtom> builtins_;
};

}  // namespace relcomp

#endif  // RELCOMP_QUERY_CQ_H_
