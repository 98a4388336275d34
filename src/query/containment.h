// Containment constraints (CCs): φ = q(R) ⊆ p(Rm) where q is a CQ (with
// =/≠) over the database schema and p is a projection over a master
// relation. (I, Dm) ⊨ φ iff q(I) ⊆ π_cols(Dm[master]). CCs bound part of a
// database by the closed-world master data; with ≠ they also express denial
// constraints, FDs and CFDs (Section 2.1 / Example 2.1).
#ifndef RELCOMP_QUERY_CONTAINMENT_H_
#define RELCOMP_QUERY_CONTAINMENT_H_

#include <string>
#include <vector>

#include "query/cq.h"

namespace relcomp {

/// A single containment constraint q(R) ⊆ π_cols(Rm).
class ContainmentConstraint {
 public:
  ContainmentConstraint() = default;
  ContainmentConstraint(std::string name, ConjunctiveQuery q,
                        std::string master_rel, std::vector<int> master_cols)
      : name_(std::move(name)),
        q_(std::move(q)),
        master_rel_(std::move(master_rel)),
        master_cols_(std::move(master_cols)) {}

  const std::string& name() const { return name_; }
  const ConjunctiveQuery& q() const { return q_; }
  const std::string& master_rel() const { return master_rel_; }
  const std::vector<int>& master_cols() const { return master_cols_; }

  /// (I, Dm) ⊨ φ.
  Result<bool> Satisfied(const Instance& instance, const Instance& dm) const;

  /// π_cols(Dm[master]) — the closed-world side of the constraint.
  /// Satisfied() recomputes it per call; a PreparedSetting's compiled plan
  /// projects it once.
  Result<Relation> ProjectMaster(const Instance& dm) const;

  /// Validates the CC against database and master schemas (arity of head
  /// matches projection width, relations exist).
  Status Validate(const DatabaseSchema& schema,
                  const DatabaseSchema& master_schema) const;

  /// True if this CC is an inclusion dependency π_cols(R) ⊆ π_cols'(Rm):
  /// single relation atom, no builtins, head a list of distinct variables
  /// drawn from the atom. INDs make RCQP tractable (Corollary 7.2).
  bool IsInd() const;

  std::string ToString() const;

 private:
  std::string name_;
  ConjunctiveQuery q_;
  std::string master_rel_;
  std::vector<int> master_cols_;
};

/// A set V of CCs.
using CCSet = std::vector<ContainmentConstraint>;

/// (I, Dm) ⊨ V.
Result<bool> SatisfiesCCs(const Instance& instance, const Instance& dm,
                          const CCSet& ccs);

/// Constants mentioned by any CC body/head (sorted, unique).
std::vector<Value> CcConstants(const CCSet& ccs);

/// Largest variable id used by any CC, or -1.
int32_t CcMaxVarId(const CCSet& ccs);

/// True if every CC in V is an IND.
bool AllInds(const CCSet& ccs);

/// Encodes the FD `lhs → rhs` on relation `rel` as a CC whose body detects
/// violating tuple pairs and whose head must be contained in the empty
/// master relation `empty_master_rel` (arity 1), following Example 2.1.
/// `lhs` / `rhs` are attribute indices of `rel`.
Result<ContainmentConstraint> EncodeFdAsCc(const RelationSchema& rel,
                                           const std::vector<int>& lhs,
                                           int rhs,
                                           const std::string& empty_master_rel);

}  // namespace relcomp

#endif  // RELCOMP_QUERY_CONTAINMENT_H_
