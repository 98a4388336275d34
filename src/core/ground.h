// Relative completeness for ground instances (strong ≡ viable on ground
// data, Section 2.2): I is complete for monotone Q relative to (Dm, V) iff I
// is partially closed and "bounded by (Dm, V)" — no Adom-valuation ν of any
// tableau disjunct (T_Qi, u_i) yields a partially closed I ∪ ν(T_Qi) with a
// new answer ν(u_i) ∉ Q(I). This is the Lemma 4.2 / 4.3 characterization.
// IsCompleteGround is the inner loop of the strong, viable and minimality
// deciders; RcdpStrongGround (core/rcdp.h) is its entry point for one
// ground instance.
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
/// `adom` must have been built with `q` folded in, and I must be over
/// prepared.schema(): the caller, a decider, has checked it
/// (CheckSchemaMatches). RcdpStrongGround is the checked entry point.
Result<bool> IsCompleteGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const AdomContext& adom,
                              const SearchOptions& options = {},
                              SearchStats* stats = nullptr,
                              CompletenessWitness* witness = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_GROUND_H_
