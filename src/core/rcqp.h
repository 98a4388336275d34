// RCQP — the relatively complete query problem: does ANY instance complete
// for Q relative to (Dm, V) exist?
//  - Weak model: trivially true (O(1)) for every monotone language
//    (Theorem 5.4); undecidable for FO.
//  - Strong/viable models: c-instances and ground instances coincide
//    (Lemma 4.4); NEXPTIME-complete for CQ/UCQ/∃FO⁺ (Thm 4.5 / Cor 6.2),
//    implemented as (a) the PTIME boundedness test when all CCs are INDs
//    (Corollary 7.2, after Fan & Geerts 2009 Prop. 4.3) and (b) a bounded
//    exhaustive witness search that mirrors the NEXPTIME upper-bound proof
//    with the exponential size bound made an explicit parameter.
#ifndef RELCOMP_CORE_RCQP_H_
#define RELCOMP_CORE_RCQP_H_

#include <optional>

#include "core/adom.h"
#include "core/ground.h"
#include "core/types.h"
#include "core/prepared_setting.h"

namespace relcomp {

/// Weak model: O(1) — always true for CQ/UCQ/∃FO⁺/FP; kUndecidable for FO.
Result<bool> RcqpWeak(const Query& q, const PreparedSetting& prepared);

/// Outcome of the bounded strong/viable-model search.
struct RcqpSearchResult {
  bool found = false;            ///< a complete instance was found
  Instance witness;              ///< the instance, if found
  bool bound_exhausted = false;  ///< searched every instance up to the bound
};

/// Strong (≡ viable, by Lemma 4.4) model: searches for a complete ground
/// instance with at most `max_tuples` tuples over the Adom. `found == false`
/// with `bound_exhausted == true` means no witness up to the bound — only
/// conclusive if the caller knows the NEXPTIME witness bound fits.
Result<RcqpSearchResult> RcqpStrongBounded(const Query& q,
                                           const PreparedSetting& prepared,
                                           size_t max_tuples,
                                           const SearchOptions& options = {},
                                           SearchStats* stats = nullptr);

/// PTIME decision when every CC in V is an IND (Corollary 7.2): RCQ is
/// non-empty iff every disjunct of Q is either bounded by (Dm, V) or has no
/// valid valuation. Fails with kInvalidArgument if some CC is not an IND.
Result<bool> RcqpStrongInd(const Query& q,
                           const PreparedSetting& prepared,
                           const SearchOptions& options = {},
                           SearchStats* stats = nullptr);

/// Boundedness of one disjunct (Fan & Geerts 2009): every head variable
/// either sits in a finite-domain column or in a column covered by an IND CC
/// into master data. The disjunct must be over `schema`.
bool IsBoundedDisjunct(const ConjunctiveQuery& disjunct,
                       const DatabaseSchema& schema, const CCSet& ccs);

}  // namespace relcomp

#endif  // RELCOMP_CORE_RCQP_H_
