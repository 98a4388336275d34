#include "query/containment.h"

#include <algorithm>

namespace relcomp {

Result<bool> ContainmentConstraint::Satisfied(const Instance& instance,
                                              const Instance& dm) const {
  Result<Relation> lhs = q_.Eval(instance);
  if (!lhs.ok()) return lhs.status();
  Result<Relation> rhs = ProjectMaster(dm);
  if (!rhs.ok()) return rhs.status();
  return lhs->IsSubsetOf(*rhs);
}

Result<Relation> ContainmentConstraint::ProjectMaster(
    const Instance& dm) const {
  const Relation* master = dm.Find(master_rel_);
  if (master == nullptr) {
    return Status::InvalidArgument("CC '" + name_ +
                                   "' references unknown master '" +
                                   master_rel_ + "'");
  }
  return master->Project(master_cols_);
}

Status ContainmentConstraint::Validate(
    const DatabaseSchema& schema, const DatabaseSchema& master_schema) const {
  RELCOMP_RETURN_IF_ERROR(q_.Validate(schema));
  const RelationSchema* master = master_schema.Find(master_rel_);
  if (master == nullptr) {
    return Status::InvalidArgument("CC '" + name_ +
                                   "' references unknown master '" +
                                   master_rel_ + "'");
  }
  if (master_cols_.size() != q_.OutputArity()) {
    return Status::InvalidArgument(
        "CC '" + name_ + "': head arity " + std::to_string(q_.OutputArity()) +
        " does not match projection width " +
        std::to_string(master_cols_.size()));
  }
  for (int c : master_cols_) {
    if (c < 0 || static_cast<size_t>(c) >= master->arity()) {
      return Status::InvalidArgument("CC '" + name_ +
                                     "': projection column out of range");
    }
  }
  return Status::OK();
}

bool ContainmentConstraint::IsInd() const {
  if (q_.atoms().size() != 1 || !q_.builtins().empty()) return false;
  const RelAtom& atom = q_.atoms()[0];
  std::vector<VarId> seen;
  for (const CTerm& t : q_.head()) {
    if (!std::holds_alternative<VarId>(t)) return false;
    VarId v = std::get<VarId>(t);
    if (std::find(seen.begin(), seen.end(), v) != seen.end()) return false;
    seen.push_back(v);
    bool in_atom = false;
    for (const CTerm& a : atom.args) {
      if (std::holds_alternative<VarId>(a) && std::get<VarId>(a) == v) {
        in_atom = true;
        break;
      }
    }
    if (!in_atom) return false;
  }
  return true;
}

std::string ContainmentConstraint::ToString() const {
  std::string out = name_.empty() ? "cc" : name_;
  out += ": " + q_.ToString() + "  SUBSETOF  " + master_rel_ + "[";
  for (size_t i = 0; i < master_cols_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(master_cols_[i]);
  }
  out += "]";
  return out;
}

Result<bool> SatisfiesCCs(const Instance& instance, const Instance& dm,
                          const CCSet& ccs) {
  for (const ContainmentConstraint& cc : ccs) {
    Result<bool> sat = cc.Satisfied(instance, dm);
    if (!sat.ok()) return sat.status();
    if (!*sat) return false;
  }
  return true;
}

std::vector<Value> CcConstants(const CCSet& ccs) {
  std::vector<Value> consts;
  for (const ContainmentConstraint& cc : ccs) {
    std::vector<Value> qc = cc.q().Constants();
    consts.insert(consts.end(), qc.begin(), qc.end());
  }
  std::sort(consts.begin(), consts.end());
  consts.erase(std::unique(consts.begin(), consts.end()), consts.end());
  return consts;
}

int32_t CcMaxVarId(const CCSet& ccs) {
  int32_t mx = -1;
  for (const ContainmentConstraint& cc : ccs) {
    for (VarId v : cc.q().Vars()) mx = std::max(mx, v.id);
  }
  return mx;
}

bool AllInds(const CCSet& ccs) {
  for (const ContainmentConstraint& cc : ccs) {
    if (!cc.IsInd()) return false;
  }
  return true;
}

Result<ContainmentConstraint> EncodeFdAsCc(
    const RelationSchema& rel, const std::vector<int>& lhs, int rhs,
    const std::string& empty_master_rel) {
  size_t n = rel.arity();
  if (rhs < 0 || static_cast<size_t>(rhs) >= n) {
    return Status::InvalidArgument("FD rhs attribute index out of range");
  }
  for (int a : lhs) {
    if (a < 0 || static_cast<size_t>(a) >= n) {
      return Status::InvalidArgument("FD lhs attribute index out of range");
    }
  }
  // Two atoms over `rel` sharing variables on `lhs`, with distinct variables
  // y1 ≠ y2 at position `rhs`; all other positions get fresh variables.
  // Variables: [0, n) for the first atom; [n, 2n) for the second; shared on
  // lhs positions.
  std::vector<CTerm> args1, args2;
  args1.reserve(n);
  args2.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    VarId v1{static_cast<int32_t>(i)};
    args1.push_back(v1);
    bool shared = std::find(lhs.begin(), lhs.end(), static_cast<int>(i)) !=
                  lhs.end();
    if (shared) {
      args2.push_back(v1);
    } else {
      args2.push_back(VarId{static_cast<int32_t>(n + i)});
    }
  }
  // The compared terms are whatever sits at the rhs position; if rhs ∈ lhs
  // they coincide and the ≠ builtin is unsatisfiable — the FD is trivial
  // and the CC can never fire, which is the correct semantics.
  CTerm y1 = args1[static_cast<size_t>(rhs)];
  CTerm y2 = args2[static_cast<size_t>(rhs)];
  ConjunctiveQuery q({y1},
                     {RelAtom{rel.name(), std::move(args1)},
                      RelAtom{rel.name(), std::move(args2)}},
                     {CondAtom{y1, true, y2}});
  std::string fd_name = "fd_" + rel.name() + "_" + std::to_string(rhs);
  return ContainmentConstraint(fd_name, std::move(q), empty_master_rel, {0});
}

}  // namespace relcomp
