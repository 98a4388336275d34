// PreparedSetting: a partially closed setting (Dm, V) validated once, with
// every derived artifact the deciders otherwise recompute per call cached up
// front — the setting-level Adom seed, the IND classification of the CCs
// (Corollary 7.2), and the projected master relations π_cols(Dm[Rm]) used on
// the hot path of every CC check. The core deciders accept a PreparedSetting
// directly; the legacy PartiallyClosedSetting entry points wrap their
// argument in a borrowed (unvalidated) PreparedSetting, so both APIs share
// one implementation. The service (src/service/) serves many requests
// over one PreparedSetting.
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

class PreparedSetting {
 public:
  /// Validates `setting` (schema/CC well-formedness) and prepares all
  /// derived artifacts. The setting is copied into the handle, so the
  /// result is self-contained — the right entry point for engines serving
  /// many requests.
  static Result<PreparedSetting> Prepare(PartiallyClosedSetting setting);

  /// Same, reusing a FingerprintSetting digest the caller already computed
  /// (the service registry fingerprints the setting for dedup before
  /// preparing; re-scanning Dm and every CC here would triple that cost).
  static Result<PreparedSetting> Prepare(PartiallyClosedSetting setting,
                                         uint64_t fingerprint);

  /// Prepares the artifacts without validating and without copying the
  /// setting; `setting` must outlive the handle. Used by the legacy
  /// PartiallyClosedSetting decider entry points, which historically did not
  /// validate either.
  static PreparedSetting Borrow(const PartiallyClosedSetting& setting);

  const PartiallyClosedSetting& setting() const { return *a_->setting; }
  const DatabaseSchema& schema() const { return a_->setting->schema; }
  const DatabaseSchema& master_schema() const {
    return a_->setting->master_schema;
  }
  const Instance& dm() const { return a_->setting->dm; }
  const CCSet& ccs() const { return a_->setting->ccs; }

  /// True iff every CC in V is an IND (enables the PTIME RCQP of Cor 7.2).
  bool all_inds() const { return a_->all_inds; }

  /// Cached setting-level Adom contribution. Computed on first use (and
  /// eagerly by Prepare): legacy one-shot paths that only need CC checks —
  /// e.g. a ModEnumerator built around an existing AdomContext — never pay
  /// the O(|Dm| log |Dm|) constant scan. Thread-safe.
  const AdomSeed& adom_seed() const;

  /// Cached π_cols(Dm[Rm]) per CC, parallel to ccs(). Entries whose
  /// projection failed (unknown master in a borrowed, unvalidated setting)
  /// are empty; SatisfiesCCs falls back to the unprepared check for those.
  const std::vector<Relation>& cc_projections() const {
    return a_->cc_projections;
  }

  /// Stable fingerprint of (R, Rm, Dm, V); memoization key component.
  uint64_t fingerprint() const;

  /// (I, Dm) ⊨ V using the cached master projections — the prepared
  /// replacement for SatisfiesCCs(I, dm(), ccs()).
  Result<bool> SatisfiesCCs(const Instance& instance) const;

  /// Adom builds reusing the cached seed.
  AdomContext BuildAdom(const CInstance& cinstance, const Query* query,
                        AdomOptions options = {}) const {
    return AdomContext::BuildFromSeed(adom_seed(), cinstance, query, options);
  }
  AdomContext BuildAdomForGround(const Instance& instance, const Query* query,
                                 AdomOptions options = {}) const;

 private:
  struct Artifacts {
    std::shared_ptr<const PartiallyClosedSetting> owned;  // null when borrowed
    const PartiallyClosedSetting* setting = nullptr;
    mutable std::once_flag seed_once;  // lazy: many one-shot users skip it
    mutable AdomSeed adom_seed;
    std::vector<Relation> cc_projections;
    std::vector<char> cc_projection_ok;  // parallel; false → fall back
    bool all_inds = false;
    uint64_t fingerprint = 0;
    bool fingerprinted = false;
  };

  explicit PreparedSetting(std::shared_ptr<const Artifacts> a)
      : a_(std::move(a)) {}

  static std::shared_ptr<Artifacts> Derive(
      const PartiallyClosedSetting& setting);

  std::shared_ptr<const Artifacts> a_;
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_PREPARED_SETTING_H_
