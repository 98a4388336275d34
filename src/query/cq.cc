#include "query/cq.h"

#include <algorithm>

namespace relcomp {

std::string RelAtom::ToString() const {
  std::string out = rel + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += CTermToString(args[i]);
  }
  out += ")";
  return out;
}

Status ConjunctiveQuery::Validate(const DatabaseSchema& schema) const {
  std::vector<VarId> bound;
  for (const RelAtom& atom : atoms_) {
    const RelationSchema* rel = schema.Find(atom.rel);
    if (rel == nullptr) {
      return Status::NotFound("query references unknown relation '" +
                              atom.rel + "'");
    }
    if (rel->arity() != atom.args.size()) {
      return Status::InvalidArgument(
          "atom " + atom.ToString() + " has arity " +
          std::to_string(atom.args.size()) + ", schema expects " +
          std::to_string(rel->arity()));
    }
    for (const CTerm& t : atom.args) {
      if (std::holds_alternative<VarId>(t)) {
        bound.push_back(std::get<VarId>(t));
      }
    }
  }
  auto is_bound = [&bound](const CTerm& t) {
    if (!std::holds_alternative<VarId>(t)) return true;
    VarId v = std::get<VarId>(t);
    return std::find(bound.begin(), bound.end(), v) != bound.end();
  };
  for (const CTerm& t : head_) {
    if (!is_bound(t)) {
      return Status::InvalidArgument("unsafe head term " + CTermToString(t) +
                                     " in query " + ToString());
    }
  }
  for (const CondAtom& b : builtins_) {
    if (!is_bound(b.lhs) || !is_bound(b.rhs)) {
      return Status::InvalidArgument("unsafe builtin " + b.ToString() +
                                     " in query " + ToString());
    }
  }
  return Status::OK();
}

std::vector<VarId> ConjunctiveQuery::Vars() const {
  std::vector<VarId> vars;
  auto add_term = [&vars](const CTerm& t) {
    if (std::holds_alternative<VarId>(t)) vars.push_back(std::get<VarId>(t));
  };
  for (const CTerm& t : head_) add_term(t);
  for (const RelAtom& atom : atoms_) {
    for (const CTerm& t : atom.args) add_term(t);
  }
  for (const CondAtom& b : builtins_) {
    add_term(b.lhs);
    add_term(b.rhs);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::vector<Value> ConjunctiveQuery::Constants() const {
  std::vector<Value> consts;
  auto add_term = [&consts](const CTerm& t) {
    if (std::holds_alternative<Value>(t)) consts.push_back(std::get<Value>(t));
  };
  for (const CTerm& t : head_) add_term(t);
  for (const RelAtom& atom : atoms_) {
    for (const CTerm& t : atom.args) add_term(t);
  }
  for (const CondAtom& b : builtins_) {
    add_term(b.lhs);
    add_term(b.rhs);
  }
  std::sort(consts.begin(), consts.end());
  consts.erase(std::unique(consts.begin(), consts.end()), consts.end());
  return consts;
}

Result<Instance> ConjunctiveQuery::InstantiateTableau(
    const Valuation& nu, const DatabaseSchema& schema) const {
  Instance out(schema);
  for (const RelAtom& atom : atoms_) {
    Tuple t;
    t.reserve(atom.args.size());
    for (const CTerm& term : atom.args) {
      std::optional<Value> v = nu.Resolve(term);
      if (!v.has_value()) {
        return Status::InvalidArgument("unbound variable in tableau atom " +
                                       atom.ToString());
      }
      t.push_back(*v);
    }
    if (schema.Find(atom.rel) == nullptr) {
      return Status::NotFound("tableau atom over unknown relation '" +
                              atom.rel + "'");
    }
    out.AddTuple(atom.rel, std::move(t));
  }
  return out;
}

Result<Tuple> ConjunctiveQuery::InstantiateHead(const Valuation& nu) const {
  Tuple t;
  t.reserve(head_.size());
  for (const CTerm& term : head_) {
    std::optional<Value> v = nu.Resolve(term);
    if (!v.has_value()) {
      return Status::InvalidArgument("unbound head variable");
    }
    t.push_back(*v);
  }
  return t;
}

bool ConjunctiveQuery::BuiltinsPossiblySatisfied(const Valuation& nu) const {
  for (const CondAtom& b : builtins_) {
    std::optional<Value> lhs = nu.Resolve(b.lhs);
    std::optional<Value> rhs = nu.Resolve(b.rhs);
    if (!lhs.has_value() || !rhs.has_value()) continue;
    bool eq = (*lhs == *rhs);
    if (b.neq ? eq : !eq) return false;
  }
  return true;
}

Result<bool> ConjunctiveQuery::BuiltinsSatisfied(const Valuation& nu) const {
  for (const CondAtom& b : builtins_) {
    std::optional<Value> lhs = nu.Resolve(b.lhs);
    std::optional<Value> rhs = nu.Resolve(b.rhs);
    if (!lhs.has_value() || !rhs.has_value()) {
      return Status::InvalidArgument("unbound variable in builtin " +
                                     b.ToString());
    }
    bool eq = (*lhs == *rhs);
    if (b.neq ? eq : !eq) return false;
  }
  return true;
}

bool ConjunctiveQuery::BuiltinsSatisfiable() const {
  // Union-find over the builtins' terms. Constants are nodes too, so a
  // class holding two of them equates distinct constants.
  std::vector<CTerm> terms;
  std::vector<size_t> parent;
  auto node = [&](const CTerm& t) {
    for (size_t i = 0; i < terms.size(); ++i) {
      if (terms[i] == t) return i;
    }
    terms.push_back(t);
    parent.push_back(parent.size());
    return parent.size() - 1;
  };
  auto find = [&parent](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (const CondAtom& b : builtins_) {
    const size_t lhs = node(b.lhs);
    const size_t rhs = node(b.rhs);
    if (!b.neq) parent[find(lhs)] = find(rhs);
  }
  for (const CondAtom& b : builtins_) {
    if (b.neq && find(node(b.lhs)) == find(node(b.rhs))) return false;
  }
  std::vector<size_t> constant_root(terms.size(), terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    if (!std::holds_alternative<Value>(terms[i])) continue;
    size_t& seen = constant_root[find(i)];
    if (seen != terms.size()) return false;  // a second constant
    seen = i;
  }
  return true;
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ", ";
    out += CTermToString(head_[i]);
  }
  out += ") :- ";
  bool first = true;
  for (const RelAtom& atom : atoms_) {
    if (!first) out += ", ";
    first = false;
    out += atom.ToString();
  }
  for (const CondAtom& b : builtins_) {
    if (!first) out += ", ";
    first = false;
    out += b.ToString();
  }
  return out;
}

}  // namespace relcomp
