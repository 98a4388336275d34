// The active domain Adom = S ∪ New ∪ df of the Prop 3.3 / Thm 4.1 proofs:
// all constants of T, Dm, V (and the query), plus one fresh ("New") constant
// per variable, plus every finite-domain constant. All decision procedures
// enumerate valuations over Adom only — the paper's finite-model argument
// shows this is sound and complete.
//
// Cost model. The setting's part of Adom (the constants of Dm and V, and
// df) is an AdomSeed, built once per setting and shared. A request's
// AdomContext adds only an overlay: its own constants that the seed lacks,
// and its fresh constants. Building one costs O(|T| + |Q|) plus a binary
// search in the seed per request constant. The full sorted vectors
// (values(), base()) are merged from those sorted runs on first use, so
// only consumers that enumerate all of Adom pay O(|Adom|).
#ifndef RELCOMP_CORE_ADOM_H_
#define RELCOMP_CORE_ADOM_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/types.h"

namespace relcomp {

/// The setting-level contribution to every Adom built over one (Dm, V):
/// the constants of Dm, V and the finite attribute domains, plus the fresh
/// budget owed to CC variables and the widest relation. Computing this is
/// O(|Dm| log |Dm|); a prepared setting computes it once and shares it with
/// every AdomContext built over it.
struct AdomSeed {
  std::vector<Value> base;  ///< sorted, unique setting constants
  size_t fresh = 0;         ///< setting-level fresh-constant budget
};

/// The finite active domain for a given (T, Dm, V, Q) combination. Built in
/// place by the factories below and passed by reference: it is neither
/// copyable nor movable, and it is safe to read from many threads.
class AdomContext {
 public:
  /// Computes the setting-level seed used by BuildFromSeed. A
  /// PreparedSetting computes it once, in Prepare.
  static AdomSeed SeedFor(const PartiallyClosedSetting& setting);

  /// Builds Adom for c-instance `T` over a shared seed, optionally folding
  /// in the constants and variables of `query`. Deciders call it through
  /// PreparedSetting::BuildAdom.
  static AdomContext BuildFromSeed(std::shared_ptr<const AdomSeed> seed,
                                   const CInstance& cinstance,
                                   const Query* query);

  AdomContext(const AdomContext&) = delete;
  AdomContext& operator=(const AdomContext&) = delete;

  /// S ∪ New ∪ df, sorted and unique. Materialized on first call.
  const std::vector<Value>& values() const;
  /// The fresh ("New") constants only, in the order they were drawn.
  const std::vector<Value>& fresh() const { return fresh_; }
  /// S ∪ df (no fresh constants), sorted and unique. Materialized on first
  /// call.
  const std::vector<Value>& base() const;

  /// Candidate values for a position typed by `domain`: the finite domain's
  /// values if finite, the full Adom otherwise.
  const std::vector<Value>& Candidates(const Domain& domain) const {
    return domain.is_finite() ? domain.values() : values();
  }

 private:
  AdomContext(std::shared_ptr<const AdomSeed> seed, std::vector<Value> overlay,
              std::vector<Value> fresh)
      : seed_(std::move(seed)),
        overlay_(std::move(overlay)),
        fresh_(std::move(fresh)) {}

  std::shared_ptr<const AdomSeed> seed_;
  std::vector<Value> overlay_;  // sorted request constants not in the seed
  std::vector<Value> fresh_;
  mutable std::once_flag base_once_;
  mutable std::vector<Value> base_;
  mutable std::once_flag values_once_;
  mutable std::vector<Value> values_;
};

/// Q(I), with the quantifiers of ∃FO⁺ and FO queries ranging over Adom as
/// well. Those are the only languages that read the extra domain, so only
/// they materialize values(). Q has passed CheckQuery; should Query::Eval
/// fail anyway, this prints the status and aborts, in every build.
Relation EvalOverAdom(const Query& q, const Instance& instance,
                      const AdomContext& adom);

}  // namespace relcomp

#endif  // RELCOMP_CORE_ADOM_H_
