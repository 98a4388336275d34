// Stable fingerprints of schemas, settings, c-instances and queries, used as
// memoization keys. One structural encoder walks each object node by node:
// a value is its type tag plus its integer or its symbol's text (never its
// interner id, so fingerprints do not depend on interning order), a term
// says whether it is a variable or a value, and every list is preceded by
// its length. So Int(1) and Sym("1"), or the variable x0 and the constant
// "x0", never share a fingerprint.
#ifndef RELCOMP_CORE_FINGERPRINT_H_
#define RELCOMP_CORE_FINGERPRINT_H_

#include <cstdint>

#include "core/types.h"
#include "util/hash.h"

namespace relcomp {

/// Fingerprint of a database schema: relation names, and each attribute's
/// name and domain.
uint64_t FingerprintSchema(const DatabaseSchema& schema);

/// Fingerprint of a c-instance: FingerprintSchema of its schema, then each
/// c-table's rows in load order, with their cells and conditions.
uint64_t FingerprintCInstance(const CInstance& cinstance);

/// The same digest, reusing `schema_print` = FingerprintSchema(`schema`)
/// when the c-instance's schema equals `schema` exactly (the service passes
/// its setting's schema, which every valid request is over).
uint64_t FingerprintCInstance(const CInstance& cinstance,
                              const DatabaseSchema& schema,
                              uint64_t schema_print);

/// Fingerprint of a query: its language, then its CQs, UCQ disjuncts, FO
/// formula tree or FP rules.
uint64_t FingerprintQuery(const Query& query);

/// Fingerprint of the whole partially closed setting (R, Rm, Dm, V).
uint64_t FingerprintSetting(const PartiallyClosedSetting& setting);

/// FingerprintSetting plus an independently seeded digest of the same walk,
/// for wide (dual-digest) identity keys — the service's setting registry,
/// where one 64-bit collision would route one tenant's requests to another
/// tenant's shard.
struct SettingFingerprints {
  uint64_t primary = 0;  ///< FingerprintSetting(setting)
  uint64_t check = 0;
};
SettingFingerprints FingerprintSettingWide(
    const PartiallyClosedSetting& setting);

}  // namespace relcomp

#endif  // RELCOMP_CORE_FINGERPRINT_H_
