#include "core/bounded.h"

namespace relcomp {
namespace {

// Searches the extensions of `base` for a partially closed one whose
// answers differ from Q(base). CC-violating nodes prune their subtree (CC
// bodies are monotone CQs, so violations persist).
Result<BoundedSearchResult> SearchAround(const Query& q, const Instance& base,
                                         const PreparedSetting& prepared,
                                         const AdomContext& adom,
                                         ExtensionSearch* search,
                                         SearchStats* stats) {
  BoundedSearchResult result;
  if (stats != nullptr) ++stats->query_evals;
  Result<Relation> base_answers = EvalOverAdom(q, base, adom);
  if (!base_answers.ok()) return base_answers.status();
  using Step = ExtensionSearch::Step;
  auto test = [&](const Instance& extended, size_t added) -> Result<Step> {
    if (added == 0) return Step::kDescend;
    ++result.explored;
    if (stats != nullptr) {
      ++stats->extensions;
      ++stats->cc_checks;
    }
    if (!*prepared.SatisfiesCCs(extended)) {
      return Step::kPrune;  // supersets stay violated
    }
    if (stats != nullptr) ++stats->query_evals;
    Result<Relation> answers = EvalOverAdom(q, extended, adom);
    if (!answers.ok()) return answers.status();
    if (*answers == *base_answers) return Step::kDescend;
    result.witness_found = true;
    result.witness.world = base;
    result.witness.extension = extended;
    Relation gained = answers->Difference(*base_answers);
    Relation lost = base_answers->Difference(*answers);
    if (!gained.empty()) {
      result.witness.answer = gained.rows().front();
      result.witness.note =
          "extension gains answer " + TupleToString(result.witness.answer);
    } else {
      result.witness.answer = lost.rows().front();
      result.witness.note = "extension loses answer " +
                            TupleToString(result.witness.answer) +
                            " (non-monotone query)";
    }
    return Step::kStop;
  };
  RELCOMP_RETURN_IF_ERROR(search->Run(base, test));
  return result;
}

}  // namespace

Result<BoundedSearchResult> SearchIncompletenessGround(
    const Query& q, const Instance& instance,
    const PreparedSetting& prepared, size_t max_added_tuples,
    const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(instance.schema(), prepared.schema()));
  AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  ExtensionSearch search(prepared, adom, max_added_tuples, options,
                         "bounded incompleteness search", "bounded-dfs");
  return SearchAround(q, instance, prepared, adom, &search, stats);
}

Result<BoundedSearchResult> SearchIncompletenessStrong(
    const Query& q, const CInstance& cinstance,
    const PreparedSetting& prepared, size_t max_added_tuples,
    const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  ExtensionSearch search(prepared, adom, max_added_tuples, options,
                         "bounded incompleteness search", "bounded-dfs");
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  BoundedSearchResult aggregate;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    Result<BoundedSearchResult> result =
        SearchAround(q, world, prepared, adom, &search, stats);
    if (!result.ok()) return result.status();
    aggregate.explored += result->explored;
    if (result->witness_found) {
      aggregate.witness_found = true;
      aggregate.witness = result->witness;
      return aggregate;
    }
  }
  return aggregate;
}

}  // namespace relcomp
