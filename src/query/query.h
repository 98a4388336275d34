// Uniform wrapper over the paper's five query languages
// LQ ∈ {CQ, UCQ, ∃FO⁺, FO, FP}. The deciders in core/ dispatch on language:
// monotone languages (all but FO) admit the small-extension property, and the
// tableau-based characterizations (Lemmas 4.2/4.3) need Disjuncts().
#ifndef RELCOMP_QUERY_QUERY_H_
#define RELCOMP_QUERY_QUERY_H_

#include <variant>
#include <vector>

#include "query/cq.h"
#include "query/fo.h"
#include "query/fp.h"
#include "query/ucq.h"

namespace relcomp {

/// The query language a Query belongs to.
enum class QueryLanguage { kCQ, kUCQ, kEFOPlus, kFO, kFP };

/// Human-readable language name ("CQ", "UCQ", "EFO+", "FO", "FP").
const char* QueryLanguageName(QueryLanguage lang);

/// A query in one of the five languages of the paper.
class Query {
 public:
  Query() = default;

  static Query Cq(ConjunctiveQuery q);
  static Query Ucq(UnionQuery q);
  /// Wraps an FO query; the language is kEFOPlus when the formula avoids
  /// ¬ and ∀, else kFO.
  static Query Fo(FoQuery q);
  static Query Fp(FpProgram p);

  QueryLanguage language() const { return language_; }
  /// Every language except full FO is monotone (Q(I) ⊆ Q(I') for I ⊆ I').
  bool IsMonotone() const { return language_ != QueryLanguage::kFO; }
  size_t OutputArity() const;

  /// Q(I). `extra_domain` extends the active domain for FO quantifiers so
  /// that deciders evaluate all worlds over the same Adom; monotone
  /// languages ignore it. Fails only on a Q that Validate refuses for I's
  /// schema.
  Result<Relation> Eval(const Instance& instance,
                        const std::vector<Value>& extra_domain = {}) const;

  /// Is Q over `schema`? The language's own Validate: kInvalidArgument
  /// naming an unknown relation, a wrong arity, an unbound variable, ...
  Status Validate(const DatabaseSchema& schema) const;

  /// Constants appearing in the query (sorted, unique).
  std::vector<Value> Constants() const;

  /// The CQ disjuncts of the query: {Q} for CQ, the member CQs for UCQ, the
  /// DNF expansion for ∃FO⁺. Fails with kInvalidArgument for FO/FP, whose
  /// tableau form does not exist; the deciders ask only after CheckQuery
  /// (core/types.h) has admitted Q for a tableau cell, and read it with `*`.
  Result<std::vector<ConjunctiveQuery>> Disjuncts() const;

  /// Largest variable id used anywhere in the query, or -1 if none.
  int32_t MaxVarId() const;

  /// Underlying nodes (valid only for the matching language).
  const ConjunctiveQuery& cq() const {
    return std::get<ConjunctiveQuery>(node_);
  }
  const UnionQuery& ucq() const { return std::get<UnionQuery>(node_); }
  const FoQuery& fo() const { return std::get<FoQuery>(node_); }
  const FpProgram& fp() const { return std::get<FpProgram>(node_); }

  std::string ToString() const;

 private:
  QueryLanguage language_ = QueryLanguage::kCQ;
  std::variant<ConjunctiveQuery, UnionQuery, FoQuery, FpProgram> node_;
};

}  // namespace relcomp

#endif  // RELCOMP_QUERY_QUERY_H_
