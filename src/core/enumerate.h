// Enumeration machinery shared by all deciders: per-variable candidate
// computation (respecting finite attribute domains), odometer-style
// valuation enumeration, candidate-tuple enumeration, and the Mod(T, Dm, V)
// world enumerator.
#ifndef RELCOMP_CORE_ENUMERATE_H_
#define RELCOMP_CORE_ENUMERATE_H_

#include <set>
#include <utility>
#include <vector>

#include "core/adom.h"
#include "core/types.h"
#include "core/prepared_setting.h"
#include "query/cq.h"

namespace relcomp {

/// A variable together with its candidate value list.
using VarCandidateList = std::vector<std::pair<VarId, std::vector<Value>>>;

/// Candidates for every variable of a c-instance: the intersection of the
/// finite domains of the columns the variable occurs in, or the full Adom if
/// all its columns are infinite. Variables occurring only in conditions get
/// the full Adom.
VarCandidateList CInstanceVarCandidates(const CInstance& cinstance,
                                        const AdomContext& adom);

/// Candidates for the variables of a CQ tableau, typed by the schema
/// attributes at the positions where each variable occurs.
VarCandidateList CqVarCandidates(const ConjunctiveQuery& q,
                                 const DatabaseSchema& schema,
                                 const AdomContext& adom);

/// Odometer over the candidate lists; the zero-variable case yields exactly
/// one (empty) valuation.
class ValuationEnumerator {
 public:
  explicit ValuationEnumerator(VarCandidateList vars);

  /// Produces the next valuation into `mu`; false when exhausted.
  bool Next(Valuation* mu);

  /// Product of candidate-list sizes (0 if some variable has none).
  uint64_t TotalCount() const;

 private:
  VarCandidateList vars_;
  std::vector<size_t> indices_;
  Valuation current_;
  bool started_ = false;
  bool exhausted_ = false;
};

/// Enumerates all tuples of a relation schema over Adom candidates. Holds
/// references into `schema` and `adom`, which must outlive it.
class TupleEnumerator {
 public:
  TupleEnumerator(const RelationSchema& schema, const AdomContext& adom);

  /// Produces the next tuple into `t`; false when exhausted.
  bool Next(Tuple* t);

  /// Number of candidate tuples.
  uint64_t TotalCount() const;

 private:
  std::vector<const std::vector<Value>*> candidates_;  // per position
  std::vector<size_t> indices_;
  bool started_ = false;
  bool exhausted_ = false;
};

/// A variable for the symmetry-broken enumerator: either a closed candidate
/// list (finite attribute domain) or "open" (infinite domain).
struct OpenVarCandidate {
  VarId var;
  std::vector<Value> values;  ///< closed candidates; ignored when open
  bool open = false;
};

/// Open-variable candidates for a CQ tableau: a variable is open when no
/// finite-domain column constrains it, and otherwise gets the intersection
/// of its columns' finite domains. Needs no Adom.
std::vector<OpenVarCandidate> CqVarCandidatesOpen(
    const ConjunctiveQuery& q, const DatabaseSchema& schema);

/// Symmetry-broken valuation enumerator for *existential* searches over
/// Adom: fresh ("New") constants are interchangeable — they appear nowhere
/// in Dm, V, Q or the base values — so an open variable may take any base
/// value, any fresh value already introduced by an earlier variable, or the
/// single next unused fresh value. This enumerates one representative per
/// isomorphism class (Bell-number growth instead of |Adom|^k) and is sound
/// and complete for "does a valuation with property P exist" whenever P is
/// invariant under permuting unused fresh values.
class CanonicalValuationEnumerator {
 public:
  CanonicalValuationEnumerator(std::vector<OpenVarCandidate> vars,
                               std::vector<Value> base,
                               std::vector<Value> fresh);

  /// Produces the next valuation; false when exhausted.
  bool Next(Valuation* mu);

 private:
  size_t Limit(size_t level) const;
  Value At(size_t level, size_t index) const;
  void RecomputeFreshUsed();

  std::vector<OpenVarCandidate> vars_;
  std::vector<Value> base_;
  std::vector<Value> fresh_;
  std::vector<size_t> indices_;
  std::vector<size_t> fresh_used_before_;  // per level
  bool started_ = false;
  bool exhausted_ = false;
};

/// Builds a canonical enumerator for a CQ's variables around a concrete
/// instance: values appearing in `around` are part of the base (they are
/// not interchangeable), remaining fresh constants form the symmetric pool.
/// Reads Adom (materializing base()) only when some variable is open.
CanonicalValuationEnumerator MakeCanonicalCqEnumerator(
    const ConjunctiveQuery& q, const DatabaseSchema& schema,
    const AdomContext& adom, const Instance& around);

/// Enumerates the worlds of ModAdom(T, Dm, V): valuations µ over Adom whose
/// µ(T) satisfies the CCs. Deduplicates worlds structurally, by their
/// relations' sorted rows (different valuations can yield the same ground
/// instance).
class ModEnumerator {
 public:
  ModEnumerator(const CInstance& cinstance, const PreparedSetting& prepared,
                const AdomContext& adom, const SearchOptions& options,
                SearchStats* stats);

  /// Produces the next distinct world; `mu` and/or `world` may be null.
  /// Returns false when exhausted; fails with kResourceExhausted if the
  /// step budget runs out, or kDeadlineExceeded / kCancelled when a
  /// checkpoint observes the options' deadline or cancellation token.
  Result<bool> Next(Valuation* mu, Instance* world);

 private:
  const CInstance& cinstance_;
  PreparedSetting prepared_;
  SearchOptions options_;
  SearchStats* stats_;
  ValuationEnumerator valuations_;
  using WorldKey = std::vector<std::vector<Tuple>>;
  std::set<WorldKey> seen_;  // worlds returned so far
  SearchCheckpoint checkpoint_;
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_ENUMERATE_H_
