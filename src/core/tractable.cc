#include "core/tractable.h"

namespace relcomp {
namespace {

Status RequireRegime(const Query& q, const CInstance& cinstance, int max_vars,
                     bool allow_fp) {
  TractabilityCheck check = CheckDataComplexityRegime(q, cinstance, max_vars);
  if (!check.ok) return Status::InvalidArgument(check.reason);
  if (!allow_fp && q.language() == QueryLanguage::kFP) {
    return Status::InvalidArgument(
        "FP is only tractable in the weak model (Corollary 7.1)");
  }
  return Status::OK();
}

}  // namespace

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

Result<bool> RcdpStrongTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars, const SearchOptions& options,
                                 SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(RequireRegime(q, cinstance, max_vars, false));
  return RcdpStrong(q, cinstance, prepared, options, stats);
}

Result<bool> RcdpViableTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars, const SearchOptions& options,
                                 SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(RequireRegime(q, cinstance, max_vars, false));
  return RcdpViable(q, cinstance, prepared, options, stats);
}

Result<bool> RcdpWeakTractable(const Query& q, const CInstance& cinstance,
                               const PreparedSetting& prepared,
                               int max_vars, const SearchOptions& options,
                               SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(RequireRegime(q, cinstance, max_vars, true));
  return RcdpWeak(q, cinstance, prepared, options, stats);
}

Result<bool> MinpStrongTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars, const SearchOptions& options,
                                 SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(RequireRegime(q, cinstance, max_vars, false));
  return MinpStrong(q, cinstance, prepared, options, stats);
}

Result<bool> MinpViableTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars, const SearchOptions& options,
                                 SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(RequireRegime(q, cinstance, max_vars, false));
  return MinpViable(q, cinstance, prepared, options, stats);
}

Result<bool> MinpWeakCqTractable(const Query& q, const CInstance& cinstance,
                                 const PreparedSetting& prepared,
                                 int max_vars, const SearchOptions& options,
                                 SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(RequireRegime(q, cinstance, max_vars, true));
  return MinpWeakCq(q, cinstance, prepared, options, stats);
}

}  // namespace relcomp
