// Section 7: tractable special cases under data complexity. With Q and V
// fixed and c-instances restricted to a constant number of variables, the
// generic deciders of this library run in polynomial time in |T| + |Dm|:
// every enumeration loop is |Adom|^k for a constant k. There is no separate
// tractable decider: CheckDataComplexityRegime names the regime, the general
// deciders (core/rcdp.h, core/minp.h) decide it, and
// bench/bench_sec7_tractable measures the polynomial scaling.
#ifndef RELCOMP_CORE_TRACTABLE_H_
#define RELCOMP_CORE_TRACTABLE_H_

#include <string>

#include "ctable/cinstance.h"
#include "query/query.h"

namespace relcomp {

/// Whether the (Q, V, T) combination is in the Section-7 PTIME regime.
struct TractabilityCheck {
  bool ok = false;
  std::string reason;
};

/// Corollaries 7.1 / 7.3 regime: c-instance with at most `max_vars`
/// variables and a monotone query language: CQ/UCQ/∃FO⁺, or FP, which is
/// tractable in the weak model only (the strong and viable deciders refuse
/// it as undecidable).
TractabilityCheck CheckDataComplexityRegime(const Query& q,
                                            const CInstance& cinstance,
                                            int max_vars);

}  // namespace relcomp

#endif  // RELCOMP_CORE_TRACTABLE_H_
