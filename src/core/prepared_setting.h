// PreparedSetting: a partially closed setting (Dm, V) validated once, with
// every derived artifact the deciders otherwise recompute per call cached —
// the setting-level Adom seed, the IND classification of the CCs
// (Corollary 7.2), and the compiled CC plans that run every CC check on the
// deciders' hot path. The core deciders accept a PreparedSetting directly;
// the legacy PartiallyClosedSetting entry points wrap their argument in a
// borrowed (unvalidated) PreparedSetting, so both APIs share one
// implementation. The service (src/service/) serves many requests over one
// PreparedSetting.
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

  /// Cached setting-level Adom contribution, shared by every AdomContext
  /// built over this setting. Computed on first use (and eagerly by
  /// Prepare): legacy one-shot paths that only need CC checks — e.g. a
  /// ModEnumerator built around an existing AdomContext — never pay the
  /// O(|Dm| log |Dm|) constant scan. Thread-safe.
  const std::shared_ptr<const AdomSeed>& adom_seed() const;

  /// Stable fingerprint of (R, Rm, Dm, V); memoization key component.
  uint64_t fingerprint() const;

  /// (I, Dm) ⊨ V through the compiled CC plans — the prepared replacement
  /// for SatisfiesCCs(I, dm(), ccs()), with the same verdicts and errors.
  Result<bool> SatisfiesCCs(const Instance& instance) const;

  /// (I ∪ Δ, Dm) ⊨ V, for an instance I that is ALREADY partially closed:
  /// semi-naive evaluation only visits CC bindings that use a row of Δ, so
  /// a closed I gives the verdict of SatisfiesCCs(I ∪ Δ) at the cost of
  /// the delta. On an I that is not closed the result is unspecified.
  /// Rows of Δ may repeat or already be in I.
  Result<bool> SatisfiesCCsDelta(const Instance& closed,
                                 const std::vector<DeltaRow>& delta) const;

  /// I ∪ Δ as an instance: built only for the candidates a delta check
  /// accepted (a returned witness, a query evaluation).
  Result<Instance> WithDelta(const Instance& base,
                             const std::vector<DeltaRow>& delta) const;

  /// Adom builds over the shared seed: O(|T| + |Q|) each.
  AdomContext BuildAdom(const CInstance& cinstance, const Query* query,
                        AdomOptions options = {}) const {
    return AdomContext::BuildFromSeed(adom_seed(), cinstance, query, options);
  }
  AdomContext BuildAdomForGround(const Instance& instance, const Query* query,
                                 AdomOptions options = {}) const;

 private:
  struct CcPlan;  // compiled CCs, defined in prepared_setting.cc

  struct Artifacts {
    ~Artifacts();  // out of line: CcPlan is incomplete here

    std::shared_ptr<const PartiallyClosedSetting> owned;  // null when borrowed
    const PartiallyClosedSetting* setting = nullptr;
    mutable std::once_flag seed_once;  // lazy: many one-shot users skip it
    mutable std::shared_ptr<const AdomSeed> adom_seed;
    // Compiled on the first CC check, not in Prepare: registering a setting
    // does not pay for it, and one-shot users that never check a CC never
    // build it. Read-only once built, so every thread shares it.
    mutable std::once_flag plan_once;
    mutable std::unique_ptr<const CcPlan> plan;
    bool all_inds = false;
    uint64_t fingerprint = 0;
    bool fingerprinted = false;
  };

  explicit PreparedSetting(std::shared_ptr<const Artifacts> a)
      : a_(std::move(a)) {}

  static std::shared_ptr<Artifacts> Derive(
      const PartiallyClosedSetting& setting);

  const CcPlan& plan() const;

  std::shared_ptr<const Artifacts> a_;
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_PREPARED_SETTING_H_
