#include "core/tractable.h"

namespace relcomp {

TractabilityCheck CheckDataComplexityRegime(const Query& q,
                                            const CInstance& cinstance,
                                            int max_vars) {
  TractabilityCheck check;
  if (q.language() == QueryLanguage::kFO) {
    check.reason = "FO stays undecidable under data complexity (Section 7)";
    return check;
  }
  size_t vars = cinstance.Vars().size();
  if (vars > static_cast<size_t>(max_vars)) {
    check.reason = "c-instance has " + std::to_string(vars) +
                   " variables, above the constant bound " +
                   std::to_string(max_vars);
    return check;
  }
  check.ok = true;
  check.reason = "fixed query and CCs, " + std::to_string(vars) +
                 " variables: PTIME data complexity";
  return check;
}

}  // namespace relcomp
