#include "query/fo.h"

#include <algorithm>
#include <map>

namespace relcomp {

FoPtr FoFormula::Atom(RelAtom atom) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kAtom;
  f->atom_ = std::move(atom);
  return f;
}

FoPtr FoFormula::Eq(CTerm lhs, CTerm rhs) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kCmp;
  f->cmp_ = CondAtom{std::move(lhs), false, std::move(rhs)};
  return f;
}

FoPtr FoFormula::Neq(CTerm lhs, CTerm rhs) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kCmp;
  f->cmp_ = CondAtom{std::move(lhs), true, std::move(rhs)};
  return f;
}

FoPtr FoFormula::And(std::vector<FoPtr> children) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kAnd;
  f->children_ = std::move(children);
  return f;
}

FoPtr FoFormula::Or(std::vector<FoPtr> children) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kOr;
  f->children_ = std::move(children);
  return f;
}

FoPtr FoFormula::Not(FoPtr child) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kNot;
  f->children_ = {std::move(child)};
  return f;
}

FoPtr FoFormula::Exists(std::vector<VarId> vars, FoPtr child) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kExists;
  f->bound_vars_ = std::move(vars);
  f->children_ = {std::move(child)};
  return f;
}

FoPtr FoFormula::Forall(std::vector<VarId> vars, FoPtr child) {
  auto f = std::shared_ptr<FoFormula>(new FoFormula());
  f->kind_ = Kind::kForall;
  f->bound_vars_ = std::move(vars);
  f->children_ = {std::move(child)};
  return f;
}

bool FoFormula::IsExistentialPositive() const {
  switch (kind_) {
    case Kind::kAtom:
    case Kind::kCmp:
      return true;
    case Kind::kNot:
    case Kind::kForall:
      return false;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kExists:
      for (const FoPtr& child : children_) {
        if (!child->IsExistentialPositive()) return false;
      }
      return true;
  }
  return false;
}

void FoFormula::Collect(std::vector<Value>* consts,
                        std::vector<VarId>* vars) const {
  auto add_term = [&](const CTerm& t) {
    if (std::holds_alternative<Value>(t)) {
      if (consts != nullptr) consts->push_back(std::get<Value>(t));
    } else if (vars != nullptr) {
      vars->push_back(std::get<VarId>(t));
    }
  };
  switch (kind_) {
    case Kind::kAtom:
      for (const CTerm& t : atom_.args) add_term(t);
      break;
    case Kind::kCmp:
      add_term(cmp_.lhs);
      add_term(cmp_.rhs);
      break;
    default:
      break;
  }
  if (vars != nullptr) {
    vars->insert(vars->end(), bound_vars_.begin(), bound_vars_.end());
  }
  for (const FoPtr& child : children_) child->Collect(consts, vars);
}

std::string FoFormula::ToString() const {
  switch (kind_) {
    case Kind::kAtom:
      return atom_.ToString();
    case Kind::kCmp:
      return cmp_.ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string op = kind_ == Kind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += op;
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kNot:
      return "!" + children_[0]->ToString();
    case Kind::kExists:
    case Kind::kForall: {
      std::string out = kind_ == Kind::kExists ? "exists" : "forall";
      for (VarId v : bound_vars_) out += " x" + std::to_string(v.id);
      return out + " (" + children_[0]->ToString() + ")";
    }
  }
  return "?";
}

namespace {

// Validates `f` under the variables `scope` binds: the head's, then those
// of each enclosing quantifier.
Status ValidateFormula(const FoFormula& f, const DatabaseSchema& schema,
                       std::vector<VarId>* scope) {
  auto bound = [scope, &f](const CTerm& t) {
    const VarId* v = std::get_if<VarId>(&t);
    if (v == nullptr || std::count(scope->begin(), scope->end(), *v) > 0) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        "variable " + CTermToString(t) + " of " + f.ToString() +
        " is neither a head variable nor bound by a quantifier");
  };
  if (f.kind() == FoFormula::Kind::kAtom) {
    RELCOMP_RETURN_IF_ERROR(f.atom().Validate(schema));
    for (const CTerm& t : f.atom().args) RELCOMP_RETURN_IF_ERROR(bound(t));
  }
  if (f.kind() == FoFormula::Kind::kCmp) {
    RELCOMP_RETURN_IF_ERROR(bound(f.cmp().lhs));
    RELCOMP_RETURN_IF_ERROR(bound(f.cmp().rhs));
  }
  const size_t outer = scope->size();
  scope->insert(scope->end(), f.bound_vars().begin(), f.bound_vars().end());
  for (const FoPtr& child : f.children()) {
    RELCOMP_RETURN_IF_ERROR(ValidateFormula(*child, schema, scope));
  }
  scope->resize(outer);
  return Status::OK();
}

}  // namespace

Status FoQuery::Validate(const DatabaseSchema& schema) const {
  if (formula_ == nullptr) return Status::InvalidArgument("empty FO query");
  std::vector<VarId> scope = head_;
  return ValidateFormula(*formula_, schema, &scope);
}

std::vector<Value> FoQuery::Constants() const {
  std::vector<Value> consts;
  if (formula_ != nullptr) formula_->Collect(&consts, nullptr);
  std::sort(consts.begin(), consts.end());
  consts.erase(std::unique(consts.begin(), consts.end()), consts.end());
  return consts;
}

namespace {

// A partial conjunct under construction during DNF expansion.
struct Conjunct {
  std::vector<RelAtom> atoms;
  std::vector<CondAtom> builtins;
};

// Renaming environment mapping original var ids to fresh ids.
using RenameEnv = std::map<int32_t, VarId>;

CTerm RenameTerm(const CTerm& t, const RenameEnv& env) {
  if (std::holds_alternative<Value>(t)) return t;
  VarId v = std::get<VarId>(t);
  auto it = env.find(v.id);
  return it == env.end() ? CTerm(v) : CTerm(it->second);
}

Status ExpandDnf(const FoFormula& f, const RenameEnv& env, int32_t* next_id,
                 std::vector<Conjunct>* out) {
  switch (f.kind()) {
    case FoFormula::Kind::kAtom: {
      RelAtom atom = f.atom();
      for (CTerm& t : atom.args) t = RenameTerm(t, env);
      out->push_back(Conjunct{{std::move(atom)}, {}});
      return Status::OK();
    }
    case FoFormula::Kind::kCmp: {
      CondAtom cmp = f.cmp();
      cmp.lhs = RenameTerm(cmp.lhs, env);
      cmp.rhs = RenameTerm(cmp.rhs, env);
      out->push_back(Conjunct{{}, {std::move(cmp)}});
      return Status::OK();
    }
    case FoFormula::Kind::kOr: {
      for (const FoPtr& child : f.children()) {
        RELCOMP_RETURN_IF_ERROR(ExpandDnf(*child, env, next_id, out));
      }
      return Status::OK();
    }
    case FoFormula::Kind::kAnd: {
      std::vector<Conjunct> acc = {Conjunct{}};
      for (const FoPtr& child : f.children()) {
        std::vector<Conjunct> child_dnf;
        RELCOMP_RETURN_IF_ERROR(ExpandDnf(*child, env, next_id, &child_dnf));
        std::vector<Conjunct> merged;
        for (const Conjunct& a : acc) {
          for (const Conjunct& b : child_dnf) {
            Conjunct m = a;
            m.atoms.insert(m.atoms.end(), b.atoms.begin(), b.atoms.end());
            m.builtins.insert(m.builtins.end(), b.builtins.begin(),
                              b.builtins.end());
            merged.push_back(std::move(m));
          }
        }
        acc = std::move(merged);
      }
      out->insert(out->end(), acc.begin(), acc.end());
      return Status::OK();
    }
    case FoFormula::Kind::kExists: {
      RenameEnv extended = env;
      for (VarId v : f.bound_vars()) {
        extended[v.id] = VarId{(*next_id)++};
      }
      return ExpandDnf(*f.children()[0], extended, next_id, out);
    }
    case FoFormula::Kind::kNot:
    case FoFormula::Kind::kForall:
      return Status::InvalidArgument(
          "formula is not existential-positive; cannot convert to UCQ");
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<UnionQuery> FoQuery::ToUcq() const {
  if (formula_ == nullptr) {
    return Status::InvalidArgument("empty FO query");
  }
  // Fresh ids start above every id mentioned in the formula or head.
  std::vector<VarId> vars;
  formula_->Collect(nullptr, &vars);
  vars.insert(vars.end(), head_.begin(), head_.end());
  int32_t next_id = 0;
  for (VarId v : vars) next_id = std::max(next_id, v.id + 1);

  std::vector<Conjunct> dnf;
  RELCOMP_RETURN_IF_ERROR(ExpandDnf(*formula_, RenameEnv{}, &next_id, &dnf));

  std::vector<CTerm> head;
  head.reserve(head_.size());
  for (VarId v : head_) head.push_back(v);

  UnionQuery ucq;
  for (Conjunct& c : dnf) {
    ucq.AddDisjunct(ConjunctiveQuery(head, std::move(c.atoms),
                                     std::move(c.builtins)));
  }
  return ucq;
}

std::string FoQuery::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "x" + std::to_string(head_[i].id);
  }
  out += ") := ";
  out += formula_ == nullptr ? "<empty>" : formula_->ToString();
  return out;
}

}  // namespace relcomp
