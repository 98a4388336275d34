// First-order queries (the paper's FO) and their existential-positive
// fragment ∃FO⁺: atoms, =, ≠, ∧, ∨, ¬, ∃, ∀. Evaluated under active-domain
// semantics (quantifiers range over adom(I) ∪ constants of the query),
// which is the standard finite-model reading used by the paper.
#ifndef RELCOMP_QUERY_FO_H_
#define RELCOMP_QUERY_FO_H_

#include <memory>
#include <string>
#include <vector>

#include "query/cq.h"
#include "query/ucq.h"

namespace relcomp {

class FoFormula;
/// Shared immutable formula node.
using FoPtr = std::shared_ptr<const FoFormula>;

/// An FO formula node.
class FoFormula {
 public:
  enum class Kind { kAtom, kCmp, kAnd, kOr, kNot, kExists, kForall };

  Kind kind() const { return kind_; }
  const RelAtom& atom() const { return atom_; }
  const CondAtom& cmp() const { return cmp_; }
  const std::vector<FoPtr>& children() const { return children_; }
  const std::vector<VarId>& bound_vars() const { return bound_vars_; }

  /// Builders.
  static FoPtr Atom(RelAtom atom);
  static FoPtr Eq(CTerm lhs, CTerm rhs);
  static FoPtr Neq(CTerm lhs, CTerm rhs);
  static FoPtr And(std::vector<FoPtr> children);
  static FoPtr Or(std::vector<FoPtr> children);
  static FoPtr Not(FoPtr child);
  static FoPtr Exists(std::vector<VarId> vars, FoPtr child);
  static FoPtr Forall(std::vector<VarId> vars, FoPtr child);

  /// True if the formula avoids ¬ and ∀ (the ∃FO⁺ fragment; ≠ is allowed as
  /// an atomic predicate, as in the paper).
  bool IsExistentialPositive() const;

  /// Collects constants into `consts` and all variables into `vars`.
  void Collect(std::vector<Value>* consts, std::vector<VarId>* vars) const;

  std::string ToString() const;

 private:
  friend class FoQuery;
  FoFormula() = default;

  Kind kind_ = Kind::kAtom;
  RelAtom atom_;                // kAtom
  CondAtom cmp_;                // kCmp
  std::vector<FoPtr> children_; // kAnd/kOr/kNot
  std::vector<VarId> bound_vars_;  // kExists/kForall (child in children_[0])
};

/// An FO query: free (head) variables plus a formula.
class FoQuery {
 public:
  FoQuery() = default;
  FoQuery(std::vector<VarId> head, FoPtr formula)
      : head_(std::move(head)), formula_(std::move(formula)) {}

  const std::vector<VarId>& head() const { return head_; }
  const FoPtr& formula() const { return formula_; }
  size_t OutputArity() const { return head_.size(); }

  bool IsExistentialPositive() const {
    return formula_ != nullptr && formula_->IsExistentialPositive();
  }

  /// Q(I) under active-domain semantics. `extra_domain` values are added to
  /// the quantification range (used by the deciders so that quantifiers see
  /// the full Adom). Validates against I's schema once, at entry.
  Result<Relation> Eval(const Instance& instance,
                        const std::vector<Value>& extra_domain = {}) const;

  /// Checks that the query is over `schema` (kInvalidArgument otherwise):
  /// the formula is set, every atom names a relation of `schema` with its
  /// arity, and every variable is a head variable or is bound by an
  /// enclosing quantifier.
  Status Validate(const DatabaseSchema& schema) const;

  /// Constants of the formula (sorted, unique).
  std::vector<Value> Constants() const;

  /// Converts an ∃FO⁺ query to an equivalent UCQ by DNF expansion with
  /// quantified-variable renaming (may be exponential in the formula size).
  /// Fails with kInvalidArgument for non-∃FO⁺ formulas.
  Result<UnionQuery> ToUcq() const;

  std::string ToString() const;

 private:
  std::vector<VarId> head_;
  FoPtr formula_;
};

}  // namespace relcomp

#endif  // RELCOMP_QUERY_FO_H_
