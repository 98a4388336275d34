// Section 7: tractable special cases under data complexity. With Q and V
// fixed and c-instances restricted to a constant number of variables, the
// generic deciders of this library run in polynomial time in |T| + |Dm|:
// every enumeration loop is |Adom|^k for a constant k. These wrappers make
// the regime explicit — they verify the precondition and then delegate —
// and bench/bench_sec7_tractable measures the polynomial scaling.
#ifndef RELCOMP_CORE_TRACTABLE_H_
#define RELCOMP_CORE_TRACTABLE_H_

#include <string>

#include "core/minp.h"
#include "core/rcdp.h"
#include "core/rcqp.h"

namespace relcomp {

/// Whether the (Q, V, T) combination is in the Section-7 PTIME regime.
struct TractabilityCheck {
  bool ok = false;
  std::string reason;
};

/// Corollaries 7.1 / 7.3 regime: c-instance with at most `max_vars`
/// variables; the query language must be monotone (CQ/UCQ/∃FO⁺; FP is also
/// admitted for the weak model).
TractabilityCheck CheckDataComplexityRegime(const Query& q,
                                            const CInstance& cinstance,
                                            int max_vars);

/// Corollary 7.1: RCDP under data complexity. Same results as the general
/// deciders; fails with kInvalidArgument when outside the regime.
Result<bool> RcdpStrongTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars = 4,
                                 const SearchOptions& options = {},
                                 SearchStats* stats = nullptr);
Result<bool> RcdpViableTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars = 4,
                                 const SearchOptions& options = {},
                                 SearchStats* stats = nullptr);
Result<bool> RcdpWeakTractable(const Query& q, const CInstance& cinstance,
                               const PreparedSetting& prepared,
                               int max_vars = 4,
                               const SearchOptions& options = {},
                               SearchStats* stats = nullptr);

/// Corollary 7.3: MINP under data complexity.
Result<bool> MinpStrongTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars = 4,
                                 const SearchOptions& options = {},
                                 SearchStats* stats = nullptr);
Result<bool> MinpViableTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars = 4,
                                 const SearchOptions& options = {},
                                 SearchStats* stats = nullptr);
Result<bool> MinpWeakCqTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars = 4,
                                 const SearchOptions& options = {},
                                 SearchStats* stats = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_TRACTABLE_H_
