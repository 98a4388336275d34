#include "core/certain.h"

namespace relcomp {

Result<CertainAnswersResult> CertainAnswers(
    const Query& q, const CInstance& cinstance,
    const PreparedSetting& prepared, const AdomContext& adom,
    const SearchOptions& options, SearchStats* stats) {
  CertainAnswersResult result;
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    if (stats != nullptr) ++stats->query_evals;
    Relation answers = EvalOverAdom(q, world, adom);
    if (!result.mod_nonempty) {
      result.mod_nonempty = true;
      result.answers = std::move(answers);
    } else {
      result.answers = result.answers.Intersect(answers);
    }
    ++result.worlds;
    // An empty intersection can only stay empty.
    if (result.answers.empty()) break;
  }
  return result;
}

}  // namespace relcomp
