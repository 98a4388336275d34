// Relative completeness for ground instances (strong ≡ viable on ground
// data, Section 2.2): I is complete for monotone Q relative to (Dm, V) iff I
// is partially closed and "bounded by (Dm, V)" — no Adom-valuation ν of any
// tableau disjunct (T_Qi, u_i) yields a partially closed I ∪ ν(T_Qi) with a
// new answer ν(u_i) ∉ Q(I). This is the Lemma 4.2 / 4.3 characterization.
//
// CCs are monotone, so a ν whose ν(T_Qi) violates V on its own violates it
// with every I. A GroundCheck therefore enumerates each disjunct's ν at
// most once per request and keeps the admissible ones; every instance is
// then tested against that set only. GroundCheck is the inner loop of the
// strong, viable and minimality deciders and of the strong RCQP search;
// RcdpStrongGround (core/rcdp.h) is its entry point for one ground
// instance. It trusts its caller, a decider, to have checked Q
// (CheckQuery), so nothing here fails on Q.
#ifndef RELCOMP_CORE_GROUND_H_
#define RELCOMP_CORE_GROUND_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/adom.h"
#include "core/enumerate.h"
#include "core/types.h"
#include "core/prepared_setting.h"

namespace relcomp {

/// The admissible valuations ν of one tableau disjunct, walked on demand:
/// ν ranges over Adom canonically, with adom.base() pinned and adom.fresh()
/// as the symmetric pool (MakeCanonicalCqEnumerator around ∅), and is
/// admissible when its builtins hold and ν(T_Q) satisfies V on its own.
/// Contradictory builtins end the walk before any enumeration. ∅ must be
/// partially closed, which it is whenever any instance is (CCs are
/// monotone). `disjunct` is over prepared.schema(); it, `prepared` and
/// `adom` must outlive the walk, which is built in place (neither copyable
/// nor movable).
class AdmissibleValuations {
 public:
  AdmissibleValuations(const ConjunctiveQuery& disjunct,
                       const PreparedSetting& prepared,
                       const AdomContext& adom);
  AdmissibleValuations(const AdmissibleValuations&) = delete;
  AdmissibleValuations& operator=(const AdmissibleValuations&) = delete;

  /// Binds `nu` to the next admissible valuation and fills `delta` with
  /// ν(T_Q); false when none is left. Each ν enumerated is one step of
  /// `checkpoint` and one SearchStats::valuations; each V test is one
  /// cc_checks. Fails only when the checkpoint aborts.
  Result<bool> Next(SearchCheckpoint* checkpoint, SearchStats* stats,
                    Valuation* nu, std::vector<DeltaRow>* delta);

 private:
  const ConjunctiveQuery& disjunct_;
  const PreparedSetting& prepared_;
  const Instance empty_;
  std::vector<size_t> rels_;  // each atom's schema index
  CanonicalValuationEnumerator nus_;
};

/// The ground completeness check of one request: built once per decider
/// call and handed every instance it tests.
class GroundCheck {
 public:
  /// Builds Q's tableau disjuncts. Q must have passed CheckQuery for a
  /// cell decided by tableau (CQ, UCQ, ∃FO⁺); `adom` must have been built
  /// with `q` folded in; `q`, `prepared` and `adom` must outlive the check.
  GroundCheck(const Query& q, const PreparedSetting& prepared,
              const AdomContext& adom);

  /// Is `closed` complete for Q relative to (Dm, V)? `closed` must be over
  /// prepared.schema() (the caller, a decider, has checked it) and
  /// partially closed: Mod worlds and their subsets are by construction,
  /// other callers check it in full first. Each call evaluates Q(I) once;
  /// then, for each admissible ν with ν(u_Q) ∉ Q(I), it delta-checks
  /// I ∪ ν(T_Q) (one step, one `extensions` and one `cc_checks` each).
  /// The admissible ν are enumerated at most once, disjunct by disjunct
  /// (AdmissibleValuations, loop "ground"), as far as some call has needed
  /// them: a call that runs past the ones found so far walks on. An I that
  /// mentions fresh constants pins them: each ν stands for its renamings
  /// that map its fresh constants injectively onto I's or onto unused
  /// ones, and each renaming is checked. The first ν that passes is the
  /// witness.
  Result<bool> IsComplete(const Instance& closed, const SearchOptions& options,
                          SearchStats* stats,
                          CompletenessWitness* witness = nullptr);

 private:
  // An admissible ν: ν(T_Q) as delta rows, the head ν(u_Q), and how many
  // fresh constants ν uses. Canonical enumeration takes them in the order
  // of adom.fresh(), so they are its first `fresh`.
  struct Admissible {
    std::vector<DeltaRow> delta;
    Tuple head;
    size_t fresh = 0;
  };

  // Appends the next admissible ν to admissible_; false once every
  // disjunct is walked.
  Result<bool> FindAdmissible(SearchCheckpoint* checkpoint,
                              SearchStats* stats);
  // adom.fresh()'s index of `v`, or -1 when `v` is not fresh.
  int FreshIndex(const Value& v) const;

  const Query* q_;
  const PreparedSetting* prepared_;
  const AdomContext* adom_;
  std::vector<std::pair<Value, size_t>> fresh_index_;  // sorted by value
  std::vector<ConjunctiveQuery> disjuncts_;
  size_t next_disjunct_ = 0;
  std::unique_ptr<AdmissibleValuations> walk_;  // the disjunct walked now
  std::vector<Admissible> admissible_;
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_GROUND_H_
