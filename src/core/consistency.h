// The two basic analyses of Section 3 (Proposition 3.3, both Σp2-complete):
//  - consistency: is Mod(T, Dm, V) non-empty?
//  - extensibility: is Ext(I, Dm, V) non-empty?
// Both are decided by the paper's own algorithms: guess a valuation (resp. a
// single tuple) over Adom and check the CCs; the small-extension property of
// CQ-defined CCs makes one added tuple sufficient.
#ifndef RELCOMP_CORE_CONSISTENCY_H_
#define RELCOMP_CORE_CONSISTENCY_H_

#include <optional>
#include <string>

#include "core/adom.h"
#include "core/enumerate.h"
#include "core/types.h"
#include "core/prepared_setting.h"

namespace relcomp {

/// Decides whether Mod(T, Dm, V) ≠ ∅; optionally returns a witness world.
Result<bool> IsConsistent(const PreparedSetting& prepared,
                          const CInstance& cinstance,
                          const SearchOptions& options = {},
                          SearchStats* stats = nullptr,
                          Instance* witness_world = nullptr);

/// A single-tuple extension witness.
struct ExtensionWitness {
  std::string relation;
  Tuple tuple;
};

/// Decides whether Ext(I, Dm, V) ≠ ∅ for a ground instance I.
Result<bool> IsExtensible(const PreparedSetting& prepared,
                          const Instance& instance,
                          const SearchOptions& options = {},
                          SearchStats* stats = nullptr,
                          ExtensionWitness* witness = nullptr);

}  // namespace relcomp

#endif  // RELCOMP_CORE_CONSISTENCY_H_
