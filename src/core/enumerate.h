// Enumeration machinery shared by all deciders: per-variable candidates
// (respecting finite attribute domains), the one odometer every decider
// walks — the bindings of one c-table row, valuations of a query tableau,
// the candidate tuples of a relation — the Mod(T, Dm, V) world enumerator
// (a row-at-a-time backtracking walk with delta CC pruning), and the one
// bounded extension search.
#ifndef RELCOMP_CORE_ENUMERATE_H_
#define RELCOMP_CORE_ENUMERATE_H_

#include <functional>
#include <optional>
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

/// Open-variable candidates for a CQ tableau over `schema`: a variable is
/// open when no finite-domain column constrains it, and otherwise gets the
/// intersection of its columns' finite domains. Needs no Adom.
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
  std::vector<size_t> fresh_used_;  // fresh values taken by levels < i;
                                    // empty for closed levels only
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

/// Enumerates the worlds of ModAdom(T, Dm, V) by backtracking over T's rows,
/// tables in schema order and rows in table order. The rows built so far
/// form one instance, changed in place; a world is copied out only when it
/// is returned. At each row the walk first binds the row's still-unbound
/// condition variables and decides the condition: a false condition drops
/// the row. It then binds the row's unbound cell variables and checks the
/// row with SatisfiesCCsDelta against the rows so far. Those rows are
/// partially closed by induction from ∅, which is checked once in full, and
/// CC bodies are monotone CQs, so a violation prunes every completion and no
/// world is lost. A variable ranges over the odometer's candidate list: the
/// intersection of its columns' finite domains, or all of Adom when it is
/// open (condition-only variables are open); one with an empty list empties
/// Mod. A variable that occurs only in dropped rows is bound once, to its
/// first candidate. Worlds are deduplicated structurally, by their
/// relations' sorted rows: two bindings can give one world (rows that swap
/// values). T must be over the setting's schema (the deciders check it at
/// entry).
class ModEnumerator {
 public:
  ModEnumerator(const CInstance& cinstance, const PreparedSetting& prepared,
                const AdomContext& adom, const SearchOptions& options,
                SearchStats* stats);

  /// Produces the next distinct world and a µ that binds every variable of
  /// T with µ(T) = world; `mu` and/or `world` may be null. Returns false
  /// when exhausted; fails with kResourceExhausted if the step budget runs
  /// out, or kDeadlineExceeded / kCancelled when a checkpoint observes the
  /// options' deadline or cancellation token. Each binding of a row's
  /// variables is one step and one SearchStats::valuations; each delta
  /// check, and the one full check of ∅, is one cc_checks.
  Result<bool> Next(Valuation* mu, Instance* world);

 private:
  using Level = CanonicalValuationEnumerator::Level;

  // One row of T, with its variables in order of first occurrence and
  // their candidate lists. A variable of the condition is not repeated
  // among the cells.
  struct Row {
    size_t rel = 0;  // the row's table, by schema index
    const CRow* row = nullptr;
    std::vector<Level> cond_vars;
    std::vector<Level> cell_vars;
  };
  // The walk at one row: odometers over the row's variables that were
  // unbound when the walk reached it, and the tuple the current binding
  // added to the instance, if it was new there.
  struct Frame {
    std::vector<Level> cond_levels;
    std::vector<Level> cell_levels;
    std::optional<CanonicalValuationEnumerator> cond;
    std::optional<CanonicalValuationEnumerator> cells;
    bool inserted = false;
    Tuple tuple;  // the inserted tuple, while `inserted`
  };

  void Enter(size_t depth);
  Result<bool> Advance(size_t depth);
  void Unbind(const std::vector<Level>& levels);
  bool Emit(Valuation* mu, Instance* world);

  PreparedSetting prepared_;
  SearchStats* stats_;
  std::vector<OpenVarCandidate> vars_;  // the finite-domain lists
  std::vector<Level> all_vars_;         // every variable, for Emit
  std::vector<Row> rows_;
  std::vector<Frame> frames_;  // one per row, sized once
  Instance built_;             // the rows kept so far
  Valuation mu_;               // the bindings so far
  std::vector<DeltaRow> delta_{1};  // the row being checked
  size_t depth_ = 0;  // the row whose binding moves next
  bool started_ = false;
  bool done_ = false;
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
