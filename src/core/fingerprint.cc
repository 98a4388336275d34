#include "core/fingerprint.h"

#include <string_view>
#include <variant>

namespace relcomp {
namespace {

// The first word of a typed node. A term mixes kVarTag, kIntTag or kSymTag,
// so a variable, an integer and a symbol never start alike.
constexpr uint64_t kIntTag = 1;
constexpr uint64_t kSymTag = 2;
constexpr uint64_t kVarTag = 3;
constexpr uint64_t kInfiniteTag = 4;
constexpr uint64_t kFiniteTag = 5;
constexpr uint64_t kNoFormulaTag = 6;
constexpr uint64_t kFormulaTag = 7;  // + FoFormula::Kind

// The registry's second setting digest starts from this seed.
constexpr uint64_t kSettingCheckSeed = 0x5e771465eed2ULL;

// Feeds every word to two independently seeded hashers, so one walk of a
// setting yields both of its registry digests.
struct HasherPair {
  StableHasher primary;
  StableHasher check{kSettingCheckSeed};

  void Mix(uint64_t v) {
    primary.Mix(v);
    check.Mix(v);
  }
  void Mix(std::string_view s) {
    primary.Mix(s);
    check.Mix(s);
  }
};

template <typename H>
void MixLength(H& h, size_t n) {
  h.Mix(static_cast<uint64_t>(n));
}

template <typename H>
void MixValue(H& h, const Value& v) {
  if (v.is_int()) {
    h.Mix(kIntTag);
    h.Mix(static_cast<uint64_t>(v.as_int()));
  } else {
    h.Mix(kSymTag);
    h.Mix(v.sym_name());
  }
}

template <typename H>
void MixVar(H& h, VarId var) {
  h.Mix(kVarTag);
  h.Mix(static_cast<uint64_t>(static_cast<int64_t>(var.id)));
}

// A CTerm or a c-table Cell: a variable or a value.
template <typename H, typename Term>
void MixTerm(H& h, const Term& term) {
  if (const VarId* var = std::get_if<VarId>(&term)) {
    MixVar(h, *var);
  } else {
    MixValue(h, std::get<Value>(term));
  }
}

template <typename H>
void MixTerms(H& h, const std::vector<CTerm>& terms) {
  MixLength(h, terms.size());
  for (const CTerm& term : terms) MixTerm(h, term);
}

template <typename H>
void MixCondAtom(H& h, const CondAtom& atom) {
  MixTerm(h, atom.lhs);
  h.Mix(uint64_t{atom.neq ? 1u : 0u});
  MixTerm(h, atom.rhs);
}

template <typename H>
void MixCondAtoms(H& h, const std::vector<CondAtom>& atoms) {
  MixLength(h, atoms.size());
  for (const CondAtom& atom : atoms) MixCondAtom(h, atom);
}

template <typename H>
void MixRelAtom(H& h, const RelAtom& atom) {
  h.Mix(atom.rel);
  MixTerms(h, atom.args);
}

template <typename H>
void MixRelAtoms(H& h, const std::vector<RelAtom>& atoms) {
  MixLength(h, atoms.size());
  for (const RelAtom& atom : atoms) MixRelAtom(h, atom);
}

template <typename H>
void MixCq(H& h, const ConjunctiveQuery& q) {
  MixTerms(h, q.head());
  MixRelAtoms(h, q.atoms());
  MixCondAtoms(h, q.builtins());
}

template <typename H>
void MixDomain(H& h, const Domain& domain) {
  if (!domain.is_finite()) {
    h.Mix(kInfiniteTag);
    return;
  }
  h.Mix(kFiniteTag);
  MixLength(h, domain.values().size());
  for (const Value& v : domain.values()) MixValue(h, v);
}

template <typename H>
void MixSchema(H& h, const DatabaseSchema& schema) {
  MixLength(h, schema.size());
  for (const RelationSchema& rel : schema.relations()) {
    h.Mix(rel.name());
    MixLength(h, rel.arity());
    for (const Attribute& attr : rel.attributes()) {
      h.Mix(attr.name);
      MixDomain(h, attr.domain);
    }
  }
}

template <typename H>
void MixInstance(H& h, const Instance& instance) {
  // Relations follow schema order; rows are kept sorted — deterministic.
  MixLength(h, instance.relations().size());
  for (const Relation& rel : instance.relations()) {
    h.Mix(rel.schema().name());
    MixLength(h, rel.size());
    for (const Tuple& t : rel.rows()) {
      MixLength(h, t.size());
      for (const Value& v : t) MixValue(h, v);
    }
  }
}

template <typename H>
void MixSetting(H& h, const PartiallyClosedSetting& setting) {
  MixSchema(h, setting.schema);
  MixSchema(h, setting.master_schema);
  MixInstance(h, setting.dm);
  MixLength(h, setting.ccs.size());
  for (const ContainmentConstraint& cc : setting.ccs) {
    h.Mix(cc.name());
    MixCq(h, cc.q());
    h.Mix(cc.master_rel());
    MixLength(h, cc.master_cols().size());
    for (int col : cc.master_cols()) {
      h.Mix(static_cast<uint64_t>(static_cast<int64_t>(col)));
    }
  }
}

void MixFormula(StableHasher& h, const FoFormula* f) {
  if (f == nullptr) {
    h.Mix(kNoFormulaTag);
    return;
  }
  h.Mix(kFormulaTag + static_cast<uint64_t>(f->kind()));
  switch (f->kind()) {
    case FoFormula::Kind::kAtom:
      MixRelAtom(h, f->atom());
      return;
    case FoFormula::Kind::kCmp:
      MixCondAtom(h, f->cmp());
      return;
    case FoFormula::Kind::kExists:
    case FoFormula::Kind::kForall:
      MixLength(h, f->bound_vars().size());
      for (VarId var : f->bound_vars()) MixVar(h, var);
      break;
    case FoFormula::Kind::kAnd:
    case FoFormula::Kind::kOr:
    case FoFormula::Kind::kNot:
      break;
  }
  MixLength(h, f->children().size());
  for (const FoPtr& child : f->children()) MixFormula(h, child.get());
}

// Exact equality, attribute names included: a c-instance over `a` may
// reuse a digest of `b` only if they fingerprint alike.
bool SameSchema(const DatabaseSchema& a, const DatabaseSchema& b) {
  if (&a == &b) return true;
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    const RelationSchema& x = a.relations()[r];
    const RelationSchema& y = b.relations()[r];
    if (x.name() != y.name() || x.arity() != y.arity()) return false;
    for (size_t i = 0; i < x.arity(); ++i) {
      if (x.attribute(i).name != y.attribute(i).name ||
          !(x.attribute(i).domain == y.attribute(i).domain)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

uint64_t FingerprintSchema(const DatabaseSchema& schema) {
  StableHasher h;
  MixSchema(h, schema);
  return h.digest();
}

uint64_t FingerprintCInstance(const CInstance& cinstance) {
  return FingerprintCInstance(cinstance, cinstance.schema(),
                              FingerprintSchema(cinstance.schema()));
}

uint64_t FingerprintCInstance(const CInstance& cinstance,
                              const DatabaseSchema& schema,
                              uint64_t schema_print) {
  StableHasher h;
  h.Mix(SameSchema(cinstance.schema(), schema)
            ? schema_print
            : FingerprintSchema(cinstance.schema()));
  // Row order within a c-table is load order, which is part of identity
  // here (the service memoizes per concrete request object).
  MixLength(h, cinstance.tables().size());
  for (const CTable& table : cinstance.tables()) {
    MixLength(h, table.size());
    for (const CRow& row : table.rows()) {
      MixLength(h, row.cells.size());
      for (const Cell& cell : row.cells) MixTerm(h, cell);
      MixCondAtoms(h, row.condition.atoms());
    }
  }
  return h.digest();
}

uint64_t FingerprintQuery(const Query& query) {
  StableHasher h;
  h.Mix(std::string_view(QueryLanguageName(query.language())));
  switch (query.language()) {
    case QueryLanguage::kCQ:
      MixCq(h, query.cq());
      break;
    case QueryLanguage::kUCQ:
      MixLength(h, query.ucq().disjuncts().size());
      for (const ConjunctiveQuery& q : query.ucq().disjuncts()) MixCq(h, q);
      break;
    case QueryLanguage::kEFOPlus:
    case QueryLanguage::kFO:
      MixLength(h, query.fo().head().size());
      for (VarId var : query.fo().head()) MixVar(h, var);
      MixFormula(h, query.fo().formula().get());
      break;
    case QueryLanguage::kFP:
      MixLength(h, query.fp().rules().size());
      for (const FpRule& rule : query.fp().rules()) {
        MixRelAtom(h, rule.head);
        MixRelAtoms(h, rule.body);
        MixCondAtoms(h, rule.builtins);
      }
      h.Mix(query.fp().output());
      break;
  }
  return h.digest();
}

uint64_t FingerprintSetting(const PartiallyClosedSetting& setting) {
  StableHasher h;
  MixSetting(h, setting);
  return h.digest();
}

SettingFingerprints FingerprintSettingWide(
    const PartiallyClosedSetting& setting) {
  HasherPair pair;
  MixSetting(pair, setting);
  return {pair.primary.digest(), pair.check.digest()};
}

}  // namespace relcomp
