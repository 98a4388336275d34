// Variables, valuations, and the local conditions ξ(t) of c-tables
// (Imielinski & Lipski / Grahne, as used in Section 2.2 of the paper).
// A condition is a conjunction of atoms x = y, x ≠ y, x = c, x ≠ c.
#ifndef RELCOMP_CTABLE_CONDITION_H_
#define RELCOMP_CTABLE_CONDITION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "data/value.h"

namespace relcomp {

/// A c-table variable (a "marked null"). Ids are dense and allocated by the
/// caller (typically sequentially per c-instance).
struct VarId {
  int32_t id = -1;

  friend bool operator==(VarId a, VarId b) { return a.id == b.id; }
  friend bool operator!=(VarId a, VarId b) { return a.id != b.id; }
  friend bool operator<(VarId a, VarId b) { return a.id < b.id; }
};

/// A term of a condition: a variable or a constant.
using CTerm = std::variant<VarId, Value>;

/// Renders a CTerm ("x3" or the constant).
std::string CTermToString(const CTerm& t);

/// A total or partial assignment of values to variables.
class Valuation {
 public:
  Valuation() = default;
  /// Pre-sizes storage for variables with ids in [0, num_vars).
  explicit Valuation(size_t num_vars) : slots_(num_vars) {}

  /// Binds `var` to `value` (overwrites).
  void Bind(VarId var, const Value& value);
  /// Removes the binding of `var`, if any.
  void Unbind(VarId var);
  /// The value bound to `var`, if bound.
  std::optional<Value> Get(VarId var) const;
  bool IsBound(VarId var) const { return Get(var).has_value(); }

  /// Resolves a term: constants map to themselves.
  std::optional<Value> Resolve(const CTerm& term) const;

  /// Number of allocated variable slots (max bound-or-presized id + 1).
  /// Bindings live at their VarId's index, so iterating [0, num_slots())
  /// with Get visits every binding — used by the cache weigher and the
  /// snapshot serializer.
  size_t num_slots() const { return slots_.size(); }

  std::string ToString() const;

 private:
  std::vector<std::optional<Value>> slots_;
};

/// One conjunct of a condition: `lhs op rhs` with op ∈ {=, ≠}.
struct CondAtom {
  CTerm lhs;
  bool neq = false;  // false: equality, true: inequality
  CTerm rhs;

  std::string ToString() const;
};

/// A conjunction of CondAtoms; the empty conjunction is `true`.
class Condition {
 public:
  Condition() = default;
  explicit Condition(std::vector<CondAtom> atoms) : atoms_(std::move(atoms)) {}

  /// The condition `true` (no conjuncts).
  static Condition True() { return Condition(); }

  /// Builder helpers.
  static Condition VarNeqConst(VarId v, Value c);
  static Condition VarEqConst(VarId v, Value c);
  static Condition VarNeqVar(VarId a, VarId b);

  const std::vector<CondAtom>& atoms() const { return atoms_; }
  bool IsTrivial() const { return atoms_.empty(); }

  /// Evaluates under a *total* (for the mentioned variables) valuation.
  /// Unbound variables make the result nullopt ("unknown").
  std::optional<bool> Eval(const Valuation& mu) const;

  /// Evaluates under a partial valuation with three-valued semantics:
  /// returns false only if some conjunct is definitely violated. Used for
  /// early pruning during valuation enumeration.
  bool PossiblySatisfiable(const Valuation& mu) const;

  /// Collects variables mentioned by the condition into `vars`.
  void CollectVars(std::vector<VarId>* vars) const;
  /// Collects constants mentioned by the condition into `consts`.
  void CollectConstants(std::vector<Value>* consts) const;

  std::string ToString() const;

 private:
  std::vector<CondAtom> atoms_;
};

}  // namespace relcomp

#endif  // RELCOMP_CTABLE_CONDITION_H_
