// PreparedSetting: a partially closed setting (Dm, V) validated once, with
// every derived artifact the deciders otherwise recompute per call cached —
// the setting-level Adom seed, the IND classification of the CCs
// (Corollary 7.2), and the compiled CC plans that run every CC check on the
// deciders' hot path. Every core decider takes a PreparedSetting, so Prepare
// is the one place a setting is validated; each decider checks once, at
// entry, that its T or I is over schema() (CheckSchemaMatches), so the
// compiled plans are the only CC path. The service (src/service/) serves
// many requests over one PreparedSetting.
//
// A PreparedSetting is a cheap, shareable handle (copying copies one
// shared_ptr); it is immutable after construction and safe to use from many
// threads concurrently.
#ifndef RELCOMP_CORE_PREPARED_SETTING_H_
#define RELCOMP_CORE_PREPARED_SETTING_H_

#include <memory>
#include <mutex>
#include <vector>

#include "core/adom.h"
#include "core/types.h"

namespace relcomp {

/// One tuple of a delta Δ: a row for the relation at index `rel` of the
/// setting's schema.
struct DeltaRow {
  size_t rel = 0;
  Tuple tuple;
};

class PreparedSetting {
 public:
  /// Validates `setting` (PartiallyClosedSetting::Validate) and prepares
  /// the derived artifacts. The setting is moved into the handle, so the
  /// result is self-contained.
  static Result<PreparedSetting> Prepare(PartiallyClosedSetting setting);

  /// Same, reusing a FingerprintSetting digest the caller already computed
  /// (the service registry fingerprints the setting for dedup before
  /// preparing; re-scanning Dm and every CC here would triple that cost).
  static Result<PreparedSetting> Prepare(PartiallyClosedSetting setting,
                                         uint64_t fingerprint);

  const DatabaseSchema& schema() const { return a_->setting->schema; }
  const Instance& dm() const { return a_->setting->dm; }
  const CCSet& ccs() const { return a_->setting->ccs; }

  /// True iff every CC in V is an IND (enables the PTIME RCQP of Cor 7.2).
  bool all_inds() const { return a_->all_inds; }

  /// The setting-level Adom contribution, built by Prepare and shared by
  /// every AdomContext built over this setting.
  const std::shared_ptr<const AdomSeed>& adom_seed() const {
    return a_->adom_seed;
  }

  /// Stable fingerprint of (R, Rm, Dm, V); memoization key component.
  uint64_t fingerprint() const { return a_->fingerprint; }

  /// FingerprintSchema(schema()): a request over schema() reuses it instead
  /// of hashing its schema again.
  uint64_t schema_fingerprint() const { return a_->schema_fingerprint; }

  /// (I, Dm) ⊨ V through the compiled CC plans: the verdict of the
  /// reference SatisfiesCCs(I, dm(), ccs()). I must be over schema() (the
  /// deciders' input contract, CheckSchemaMatches): the plans read each
  /// relation at its schema index. Never fails: the Result return stays
  /// only because perfbench's replay calls ok() on it, so callers read the
  /// verdict with `*`.
  Result<bool> SatisfiesCCs(const Instance& instance) const;

  /// (I ∪ Δ, Dm) ⊨ V, for an instance I over schema() that is ALREADY
  /// partially closed: semi-naive evaluation only visits CC bindings that
  /// use a row of Δ, so a closed I gives the verdict of SatisfiesCCs(I ∪ Δ)
  /// at the cost of the delta. On an I that is not closed the result is
  /// unspecified. Rows of Δ may repeat or already be in I.
  bool SatisfiesCCsDelta(const Instance& closed,
                         const std::vector<DeltaRow>& delta) const;

  /// I ∪ Δ as an instance, for an I over schema(): built only for the
  /// candidates a delta check accepted (a returned witness, a query
  /// evaluation).
  static Instance WithDelta(const Instance& base,
                            const std::vector<DeltaRow>& delta);

  /// Adom builds over the shared seed: O(|T| + |Q|) each.
  AdomContext BuildAdom(const CInstance& cinstance,
                        const Query* query) const {
    return AdomContext::BuildFromSeed(adom_seed(), cinstance, query);
  }
  AdomContext BuildAdomForGround(const Instance& instance,
                                 const Query* query) const;

 private:
  struct CcPlan;  // compiled CCs, defined in prepared_setting.cc

  struct Artifacts {
    ~Artifacts();  // out of line: CcPlan is incomplete here

    std::shared_ptr<const PartiallyClosedSetting> setting;
    std::shared_ptr<const AdomSeed> adom_seed;
    // Compiled on the first CC check, not in Prepare: registering a setting
    // does not pay for it, and users that never check a CC never build it.
    // Read-only once built, so every thread shares it.
    mutable std::once_flag plan_once;
    mutable std::unique_ptr<const CcPlan> plan;
    bool all_inds = false;
    uint64_t fingerprint = 0;
    uint64_t schema_fingerprint = 0;
  };

  explicit PreparedSetting(std::shared_ptr<const Artifacts> a)
      : a_(std::move(a)) {}

  const CcPlan& plan() const;

  std::shared_ptr<const Artifacts> a_;
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_PREPARED_SETTING_H_
