// FP: the paper's extension of ∃FO⁺ with an inflational fixpoint operator,
// i.e. datalog programs p(x⃗) ← p1(x⃗1), ..., pm(x⃗m) whose body predicates are
// EDB relations or IDB predicates, with =/≠ builtins allowed in rule bodies.
// Evaluation is the inflationary fixpoint lfp(Q′) of Section 5.4 / App. A.
#ifndef RELCOMP_QUERY_FP_H_
#define RELCOMP_QUERY_FP_H_

#include <string>
#include <vector>

#include "query/cq.h"

namespace relcomp {

/// One datalog rule: head(args) ← body atoms, builtins.
struct FpRule {
  RelAtom head;
  std::vector<RelAtom> body;
  std::vector<CondAtom> builtins;

  std::string ToString() const;
};

/// A datalog program with a designated output IDB predicate.
class FpProgram {
 public:
  FpProgram() = default;
  FpProgram(std::vector<FpRule> rules, std::string output)
      : rules_(std::move(rules)), output_(std::move(output)) {}

  const std::vector<FpRule>& rules() const { return rules_; }
  const std::string& output() const { return output_; }
  void AddRule(FpRule rule) { rules_.push_back(std::move(rule)); }
  void set_output(std::string output) { output_ = std::move(output); }

  /// Names of IDB predicates (those occurring in rule heads), sorted.
  std::vector<std::string> IdbPredicates() const;

  /// Arity of the output predicate (from its head occurrence); 0 if unknown.
  size_t OutputArity() const;

  /// Q(I): computes the inflationary fixpoint over EDB ∪ IDB and returns the
  /// output predicate's relation. Validates against I's schema first and
  /// fails as Validate does.
  Result<Relation> Eval(const Instance& edb) const;

  /// Checks well-formedness against the EDB schema (kInvalidArgument): no
  /// IDB/EDB name collision, a defined output, and each rule a valid CQ
  /// over CombinedSchema(edb_schema).
  Status Validate(const DatabaseSchema& edb_schema) const;

  /// Constants appearing in any rule (sorted, unique).
  std::vector<Value> Constants() const;

  std::string ToString() const;

 private:
  /// EDB ∪ one anonymous relation per IDB predicate, with the arity of its
  /// first head.
  DatabaseSchema CombinedSchema(const DatabaseSchema& edb_schema) const;

  std::vector<FpRule> rules_;
  std::string output_;
};

}  // namespace relcomp

#endif  // RELCOMP_QUERY_FP_H_
