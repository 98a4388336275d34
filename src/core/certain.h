// Certain answers over the worlds of a c-instance:
// certain(Q, T) = ⋂_{I ∈ Mod(T, Dm, V)} Q(I), computed over the finite Adom
// world set (sound and complete by the New-values argument of Lemma 5.2).
#ifndef RELCOMP_CORE_CERTAIN_H_
#define RELCOMP_CORE_CERTAIN_H_

#include "core/adom.h"
#include "core/enumerate.h"
#include "core/types.h"
#include "core/prepared_setting.h"

namespace relcomp {

/// Result of a certain-answer computation.
struct CertainAnswersResult {
  bool mod_nonempty = false;  ///< whether T is partially closed at all
  Relation answers;           ///< ⋂ Q(I); meaningless if !mod_nonempty
  uint64_t worlds = 0;        ///< distinct worlds intersected
};

/// Computes the certain answers of `q` over Mod(T, Dm, V). Like
/// GroundCheck, it takes an Adom its caller built, and T and Q must be over
/// prepared.schema(): the caller has checked both (CheckSchemaMatches,
/// CheckQuery).
Result<CertainAnswersResult> CertainAnswers(
    const Query& q, const CInstance& cinstance,
    const PreparedSetting& prepared, const AdomContext& adom,
    const SearchOptions& options = {}, SearchStats* stats = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_CERTAIN_H_
