// RCDP — the relatively complete database problem — in the three models of
// the paper (Sections 4, 5, 6):
//   strong: every world of Mod(T, Dm, V) is complete          (Thm 4.1)
//   weak:   certain answers survive all partially closed
//           extensions of all worlds                           (Thm 5.1)
//   viable: some world is complete                             (Thm 6.1)
// Decidable cases follow the paper's algorithms (Adom valuation search with
// the Lemma 4.2/4.3 and Lemma 5.2 characterizations); undecidable cells of
// Table I return kUndecidable; core/bounded.h searches them. The strong and
// viable deciders walk Mod(T, Dm, V) row by row (ModEnumerator) and test
// each world with one GroundCheck per call, which enumerates the query's
// tableau valuations at most once.
//
// Input contract (every decider in src/core/), checked once, at entry:
//  - T (or I) is a c-instance of the setting's own schema R (Section 2.2):
//    its relations are prepared.schema()'s, in order, with the same arities
//    and attribute domains (CheckSchemaMatches; kInvalidArgument naming the
//    first relation that differs).
//  - Q, the RCQP deciders' too, is a query over R in a language that the
//    decider's Table I cell decides (CheckQuery: kInvalidArgument from
//    Query::Validate, then kUndecidable naming the problem, the model and
//    the theorem).
// Past these checks nothing in src/core/ fails on T or Q.
#ifndef RELCOMP_CORE_RCDP_H_
#define RELCOMP_CORE_RCDP_H_

#include "core/adom.h"
#include "core/certain.h"
#include "core/ground.h"
#include "core/types.h"
#include "core/prepared_setting.h"

namespace relcomp {

/// Strong model: is T strongly complete for q relative to (Dm, V)?
/// Decidable for CQ/UCQ/∃FO⁺ (Πp2-complete); kUndecidable for FO/FP.
/// Returns false when Mod(T) is empty (T is not partially closed).
Result<bool> RcdpStrong(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options = {},
                        SearchStats* stats = nullptr,
                        CompletenessWitness* witness = nullptr);

/// Viable model: does some world of Mod(T) admit no answer-changing
/// partially closed extension? Decidable for CQ/UCQ/∃FO⁺ (Σp3-complete);
/// kUndecidable for FO/FP.
Result<bool> RcdpViable(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options = {},
                        SearchStats* stats = nullptr,
                        Instance* witness_world = nullptr);

/// Weak model: are the certain answers over all partially closed extensions
/// already present in T? Decidable for every monotone language — CQ/UCQ/∃FO⁺
/// (Πp3-complete) and FP (coNEXPTIME-complete); kUndecidable for FO.
/// Uses the Lemma 5.2 characterization with single-tuple extensions (the
/// small-extension property of monotone queries).
Result<bool> RcdpWeak(const Query& q, const CInstance& cinstance,
                      const PreparedSetting& prepared,
                      const SearchOptions& options = {},
                      SearchStats* stats = nullptr,
                      CompletenessWitness* witness = nullptr);

/// Ground instances (strong ≡ viable on ground instances): a full CC check
/// of I, then GroundCheck over an Adom built for I, without the Mod(T)
/// walk. For the weak model, run RcdpWeak on CInstance::FromInstance(I).
Result<bool> RcdpStrongGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const SearchOptions& options = {},
                              SearchStats* stats = nullptr,
                              CompletenessWitness* witness = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_RCDP_H_
