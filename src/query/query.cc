#include "query/query.h"

#include <algorithm>

namespace relcomp {

const char* QueryLanguageName(QueryLanguage lang) {
  switch (lang) {
    case QueryLanguage::kCQ:
      return "CQ";
    case QueryLanguage::kUCQ:
      return "UCQ";
    case QueryLanguage::kEFOPlus:
      return "EFO+";
    case QueryLanguage::kFO:
      return "FO";
    case QueryLanguage::kFP:
      return "FP";
  }
  return "?";
}

Query Query::Cq(ConjunctiveQuery q) {
  Query out;
  out.language_ = QueryLanguage::kCQ;
  out.node_ = std::move(q);
  return out;
}

Query Query::Ucq(UnionQuery q) {
  Query out;
  out.language_ = QueryLanguage::kUCQ;
  out.node_ = std::move(q);
  return out;
}

Query Query::Fo(FoQuery q) {
  Query out;
  out.language_ = q.IsExistentialPositive() ? QueryLanguage::kEFOPlus
                                            : QueryLanguage::kFO;
  out.node_ = std::move(q);
  return out;
}

Query Query::Fp(FpProgram p) {
  Query out;
  out.language_ = QueryLanguage::kFP;
  out.node_ = std::move(p);
  return out;
}

size_t Query::OutputArity() const {
  switch (language_) {
    case QueryLanguage::kCQ:
      return cq().OutputArity();
    case QueryLanguage::kUCQ:
      return ucq().OutputArity();
    case QueryLanguage::kEFOPlus:
    case QueryLanguage::kFO:
      return fo().OutputArity();
    case QueryLanguage::kFP:
      return fp().OutputArity();
  }
  return 0;
}

Result<Relation> Query::Eval(const Instance& instance,
                             const std::vector<Value>& extra_domain) const {
  switch (language_) {
    case QueryLanguage::kCQ:
      return cq().Eval(instance);
    case QueryLanguage::kUCQ:
      return ucq().Eval(instance);
    case QueryLanguage::kEFOPlus:
    case QueryLanguage::kFO:
      return fo().Eval(instance, extra_domain);
    case QueryLanguage::kFP:
      return fp().Eval(instance);
  }
  return Status::Internal("unreachable");
}

Status Query::Validate(const DatabaseSchema& schema) const {
  switch (language_) {
    case QueryLanguage::kCQ:
      return cq().Validate(schema);
    case QueryLanguage::kUCQ:
      return ucq().Validate(schema);
    case QueryLanguage::kEFOPlus:
    case QueryLanguage::kFO:
      return fo().Validate(schema);
    case QueryLanguage::kFP:
      return fp().Validate(schema);
  }
  return Status::Internal("unreachable");
}

std::vector<Value> Query::Constants() const {
  switch (language_) {
    case QueryLanguage::kCQ:
      return cq().Constants();
    case QueryLanguage::kUCQ:
      return ucq().Constants();
    case QueryLanguage::kEFOPlus:
    case QueryLanguage::kFO:
      return fo().Constants();
    case QueryLanguage::kFP:
      return fp().Constants();
  }
  return {};
}

Result<std::vector<ConjunctiveQuery>> Query::Disjuncts() const {
  switch (language_) {
    case QueryLanguage::kCQ:
      return std::vector<ConjunctiveQuery>{cq()};
    case QueryLanguage::kUCQ:
      return ucq().disjuncts();
    case QueryLanguage::kEFOPlus: {
      Result<UnionQuery> as_ucq = fo().ToUcq();
      if (!as_ucq.ok()) return as_ucq.status();
      return as_ucq->disjuncts();
    }
    case QueryLanguage::kFO:
    case QueryLanguage::kFP:
      return Status::InvalidArgument(
          std::string("no tableau disjuncts for language ") +
          QueryLanguageName(language_));
  }
  return Status::Internal("unreachable");
}

namespace {

int32_t MaxVar(const std::vector<VarId>& vars) {
  int32_t mx = -1;
  for (VarId v : vars) mx = std::max(mx, v.id);
  return mx;
}

}  // namespace

int32_t Query::MaxVarId() const {
  switch (language_) {
    case QueryLanguage::kCQ:
      return MaxVar(cq().Vars());
    case QueryLanguage::kUCQ: {
      int32_t mx = -1;
      for (const ConjunctiveQuery& q : ucq().disjuncts()) {
        mx = std::max(mx, MaxVar(q.Vars()));
      }
      return mx;
    }
    case QueryLanguage::kEFOPlus:
    case QueryLanguage::kFO: {
      std::vector<VarId> vars;
      if (fo().formula() != nullptr) fo().formula()->Collect(nullptr, &vars);
      vars.insert(vars.end(), fo().head().begin(), fo().head().end());
      return MaxVar(vars);
    }
    case QueryLanguage::kFP: {
      int32_t mx = -1;
      for (const FpRule& rule : fp().rules()) {
        auto scan = [&mx](const std::vector<CTerm>& terms) {
          for (const CTerm& t : terms) {
            if (std::holds_alternative<VarId>(t)) {
              mx = std::max(mx, std::get<VarId>(t).id);
            }
          }
        };
        scan(rule.head.args);
        for (const RelAtom& atom : rule.body) scan(atom.args);
      }
      return mx;
    }
  }
  return -1;
}

std::string Query::ToString() const {
  std::string prefix = std::string(QueryLanguageName(language_)) + " ";
  switch (language_) {
    case QueryLanguage::kCQ:
      return prefix + cq().ToString();
    case QueryLanguage::kUCQ:
      return prefix + ucq().ToString();
    case QueryLanguage::kEFOPlus:
    case QueryLanguage::kFO:
      return prefix + fo().ToString();
    case QueryLanguage::kFP:
      return prefix + fp().ToString();
  }
  return prefix;
}

}  // namespace relcomp
