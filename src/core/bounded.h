// Bounded semi-decision procedures for the undecidable cells of Table I
// (FO and FP in the strong/viable models, FO in the weak model). The paper
// proves no complete algorithm exists: witness extensions have no
// computable size bound. These searches explore extensions of up to
// `max_added_tuples` tuples over the Adom — finding a witness refutes
// completeness soundly; finding none is inconclusive.
#ifndef RELCOMP_CORE_BOUNDED_H_
#define RELCOMP_CORE_BOUNDED_H_

#include <optional>

#include "core/adom.h"
#include "core/enumerate.h"
#include "core/prepared_setting.h"
#include "core/types.h"

namespace relcomp {

/// Outcome of a bounded incompleteness search.
struct BoundedSearchResult {
  /// Whether an answer-changing partially closed extension was found.
  bool witness_found = false;
  CompletenessWitness witness;
  /// Extensions examined.
  uint64_t explored = 0;
};

/// Searches for a partially closed extension I' of the ground instance I,
/// |I'| ≤ |I| + max_added_tuples, with Q(I') ≠ Q(I). Works for every
/// language including FO/FP. A found witness proves I incomplete (strong
/// model); no witness is inconclusive for FO/FP and conclusive for
/// CQ/UCQ/∃FO⁺ only if the tableau fits in the bound.
Result<BoundedSearchResult> SearchIncompletenessGround(
    const Query& q, const Instance& instance,
    const PreparedSetting& prepared, size_t max_added_tuples,
    const SearchOptions& options = {}, SearchStats* stats = nullptr);

/// C-instance version: searches every world of Mod(T); a witness in any
/// world refutes strong completeness.
Result<BoundedSearchResult> SearchIncompletenessStrong(
    const Query& q, const CInstance& cinstance,
    const PreparedSetting& prepared, size_t max_added_tuples,
    const SearchOptions& options = {}, SearchStats* stats = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_BOUNDED_H_
