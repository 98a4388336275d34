// Relative completeness for ground instances (strong ≡ viable on ground
// data, Section 2.2): I is complete for monotone Q relative to (Dm, V) iff I
// is partially closed and "bounded by (Dm, V)" — no Adom-valuation ν of any
// tableau disjunct (T_Qi, u_i) yields a partially closed I ∪ ν(T_Qi) with a
// new answer ν(u_i) ∉ Q(I). This is the Lemma 4.2 / 4.3 characterization.
#ifndef RELCOMP_CORE_GROUND_H_
#define RELCOMP_CORE_GROUND_H_

#include "core/adom.h"
#include "core/enumerate.h"
#include "core/types.h"
#include "core/prepared_setting.h"

namespace relcomp {

/// Is the ground instance I complete for the monotone query `q` relative to
/// (Dm, V)? Requires CQ/UCQ/∃FO⁺ (languages with tableau disjuncts); FO and
/// FP are undecidable here (Theorem 4.1) and yield kUndecidable.
/// `adom` must have been built with `q` folded in.
Result<bool> IsCompleteGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const AdomContext& adom,
                              const SearchOptions& options = {},
                              SearchStats* stats = nullptr,
                              CompletenessWitness* witness = nullptr);

/// Convenience wrappers that build the Adom internally.
Result<bool> IsCompleteGroundAuto(const Query& q, const Instance& instance,
                                  const PreparedSetting& prepared,
                                  const SearchOptions& options = {},
                                  SearchStats* stats = nullptr,
                                  CompletenessWitness* witness = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_GROUND_H_
