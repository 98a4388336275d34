// Enumeration machinery shared by all deciders: per-variable candidates
// (respecting finite attribute domains), the one odometer every decider
// walks — valuations of T over Adom, valuations of a query tableau, the
// candidate tuples of a relation — the Mod(T, Dm, V) world enumerator, and
// the one bounded extension search.
#ifndef RELCOMP_CORE_ENUMERATE_H_
#define RELCOMP_CORE_ENUMERATE_H_

#include <functional>
#include <set>
#include <vector>

#include "core/adom.h"
#include "core/types.h"
#include "core/prepared_setting.h"
#include "query/cq.h"

namespace relcomp {

/// A variable for the odometer: either a closed candidate list (finite
/// attribute domain) or "open" (infinite domain).
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

/// The one odometer of the deciders: a mixed-radix counter over levels
/// whose LAST level advances fastest. A closed level ranges over its
/// candidate list; with closed levels only, the walk is the plain
/// cartesian product. An open level is for *existential* searches over
/// Adom: fresh ("New") constants are interchangeable — they appear nowhere
/// in Dm, V, Q or the base values — so an open level may take any base
/// value, any fresh value already introduced by an earlier level, or the
/// single next unused fresh value. This enumerates one representative per
/// isomorphism class (Bell-number growth instead of |Adom|^k) and is sound
/// and complete for "does a valuation with property P exist" whenever P is
/// invariant under permuting unused fresh values. Zero levels yield one
/// empty valuation. Levels may point into the enumerator itself, so it is
/// built in place (neither copyable nor movable).
class CanonicalValuationEnumerator {
 public:
  /// One level: the variable it binds (for a tuple walk, the column
  /// index) and its closed candidate list, or null when it is open.
  struct Level {
    VarId var;
    const std::vector<Value>* values;
  };

  /// Levels `vars`, in order, over candidate lists the enumerator keeps.
  CanonicalValuationEnumerator(std::vector<OpenVarCandidate> vars,
                               std::vector<Value> base,
                               std::vector<Value> fresh);
  /// Closed levels over lists that outlive the enumerator (a finite
  /// domain, Adom): nothing is copied.
  explicit CanonicalValuationEnumerator(std::vector<Level> levels);

  CanonicalValuationEnumerator(const CanonicalValuationEnumerator&) = delete;
  CanonicalValuationEnumerator& operator=(
      const CanonicalValuationEnumerator&) = delete;

  /// Binds every level's variable to its next value; false when exhausted.
  bool Next(Valuation* mu);
  /// Writes the next value of level i at column levels[i].var; false when
  /// exhausted.
  bool Next(Tuple* t);

 private:
  bool Advance();
  size_t Limit(size_t level) const;
  const Value& At(size_t level) const;

  std::vector<OpenVarCandidate> owned_;  // the lists of the first ctor
  std::vector<Level> levels_;
  std::vector<Value> base_;
  std::vector<Value> fresh_;
  std::vector<size_t> index_;       // per level
  std::vector<size_t> fresh_used_;  // fresh values taken by levels < i
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

/// The candidate tuples of `rel` over Adom, first column fastest: closed
/// levels over the columns' candidate lists (pointing into `adom` and the
/// schema, which must outlive it), last column first.
CanonicalValuationEnumerator CandidateTuples(const RelationSchema& rel,
                                             const AdomContext& adom);

/// Enumerates the worlds of ModAdom(T, Dm, V): valuations µ over Adom whose
/// µ(T) satisfies the CCs, the lowest variable id advancing fastest.
/// Deduplicates worlds structurally, by their relations' sorted rows
/// (different valuations can yield the same ground instance). T must be
/// over the setting's schema (the deciders check it at entry).
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
  SearchStats* stats_;
  std::vector<OpenVarCandidate> vars_;  // the finite-domain lists
  CanonicalValuationEnumerator valuations_;
  using WorldKey = std::vector<std::vector<Tuple>>;
  std::set<WorldKey> seen_;  // worlds returned so far
  SearchCheckpoint checkpoint_;
};

/// The bounded extension search: a depth-first walk over the extensions of
/// a ground instance by at most `max_added` tuples over Adom, each visited
/// once. Tuples are added in canonical (relation, candidate) order, where a
/// relation's candidates are decoded on demand in CandidateTuples' order
/// (nothing is materialized up front); candidates already in the base are
/// skipped. Every node, the root included, charges one checkpoint step and
/// then goes to the caller's test, which decides whether the walk goes
/// deeper, prunes the node's subtree, or stops.
class ExtensionSearch {
 public:
  enum class Step { kDescend, kPrune, kStop };
  /// The caller's node test: `extended` is the base plus `added` tuples.
  using NodeTest =
      std::function<Result<Step>(const Instance& extended, size_t added)>;

  /// `what` and `loop` name the search's checkpoint (see SearchCheckpoint).
  /// `adom` must outlive the search.
  ExtensionSearch(const PreparedSetting& prepared, const AdomContext& adom,
                  size_t max_added, const SearchOptions& options,
                  const char* what, const char* loop);

  /// Walks the extensions of `base`, an instance over the setting's schema,
  /// until the test stops the walk or none is left.
  Status Run(Instance base, const NodeTest& test);

 private:
  // The candidate tuples of one relation: candidate i is i in mixed radix
  // over the columns' candidate lists, first column fastest.
  struct Candidates {
    std::vector<const std::vector<Value>*> columns;
    size_t count = 1;  // the product of the list sizes, saturating

    void Decode(size_t i, Tuple* t) const;
  };

  // Visits `current` (the base plus `added` tuples), then its extensions by
  // the candidates from (rel, next) on. True once the test stopped the walk.
  Result<bool> Explore(Instance* current, size_t added, size_t rel,
                       size_t next, const NodeTest& test);

  size_t max_added_;
  SearchCheckpoint checkpoint_;
  std::vector<Candidates> candidates_;  // per relation of the schema
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_ENUMERATE_H_
