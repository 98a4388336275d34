#include "core/fingerprint.h"

namespace relcomp {
namespace {

void MixValue(StableHasher* h, const Value& v) {
  // Tag + canonical text: symbol ids are interning-order dependent, so
  // symbols hash by name.
  if (v.is_int()) {
    h->Mix(uint64_t{0});
    h->Mix(static_cast<uint64_t>(v.as_int()));
  } else {
    h->Mix(uint64_t{1});
    h->Mix(v.sym_name());
  }
}

void MixDomain(StableHasher* h, const Domain& domain) {
  if (!domain.is_finite()) {
    h->Mix("inf");
    return;
  }
  h->Mix(static_cast<uint64_t>(domain.values().size()));
  for (const Value& v : domain.values()) MixValue(h, v);
}

void MixSchema(StableHasher* h, const DatabaseSchema& schema) {
  h->Mix(static_cast<uint64_t>(schema.size()));
  for (const RelationSchema& rel : schema.relations()) {
    h->Mix(rel.name());
    h->Mix(static_cast<uint64_t>(rel.arity()));
    for (const Attribute& attr : rel.attributes()) {
      h->Mix(attr.name);
      MixDomain(h, attr.domain);
    }
  }
}

void MixInstance(StableHasher* h, const Instance& instance) {
  // Relations follow schema order; rows are kept sorted — deterministic.
  for (const Relation& rel : instance.relations()) {
    h->Mix(rel.schema().name());
    h->Mix(static_cast<uint64_t>(rel.size()));
    for (const Tuple& t : rel.rows()) {
      for (const Value& v : t) MixValue(h, v);
    }
  }
}

}  // namespace

uint64_t FingerprintCInstance(const CInstance& cinstance) {
  // The textual rendering covers rows, variables and conditions; row order
  // within a c-table is load order, which is part of identity here (the
  // engine memoizes per concrete request object).
  StableHasher h;
  MixSchema(&h, cinstance.schema());
  h.Mix(cinstance.ToString());
  return h.digest();
}

uint64_t FingerprintQuery(const Query& query) {
  StableHasher h;
  h.Mix(QueryLanguageName(query.language()));
  h.Mix(query.ToString());
  return h.digest();
}

namespace {

void MixSetting(StableHasher* h, const PartiallyClosedSetting& setting) {
  MixSchema(h, setting.schema);
  MixSchema(h, setting.master_schema);
  MixInstance(h, setting.dm);
  h->Mix(static_cast<uint64_t>(setting.ccs.size()));
  for (const ContainmentConstraint& cc : setting.ccs) {
    h->Mix(cc.ToString());
  }
}

}  // namespace

uint64_t FingerprintSetting(const PartiallyClosedSetting& setting) {
  StableHasher h;
  MixSetting(&h, setting);
  return h.digest();
}

uint64_t FingerprintSettingSeeded(const PartiallyClosedSetting& setting,
                                  uint64_t seed) {
  StableHasher h(seed);
  MixSetting(&h, setting);
  return h.digest();
}

}  // namespace relcomp
