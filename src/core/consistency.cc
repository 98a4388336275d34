#include "core/consistency.h"

namespace relcomp {

Result<bool> IsConsistent(const PreparedSetting& prepared,
                          const CInstance& cinstance,
                          const SearchOptions& options, SearchStats* stats,
                          Instance* witness_world) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  AdomContext adom = prepared.BuildAdom(cinstance, nullptr);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Result<bool> got = worlds.Next(nullptr, witness_world);
  if (!got.ok()) return got.status();
  return *got;
}

Result<bool> IsExtensible(const PreparedSetting& prepared,
                          const Instance& instance,
                          const SearchOptions& options, SearchStats* stats,
                          ExtensionWitness* witness) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(instance.schema(), prepared.schema()));
  // CCs are monotone: if I violates V, so does every extension. Otherwise
  // I is partially closed and a delta check decides each candidate.
  if (stats != nullptr) ++stats->cc_checks;
  if (!*prepared.SatisfiesCCs(instance)) return false;
  AdomContext adom = prepared.BuildAdomForGround(instance, nullptr);
  SearchCheckpoint checkpoint(options, "extensibility search", "consistency");
  const std::vector<RelationSchema>& rels = prepared.schema().relations();
  std::vector<DeltaRow> delta(1);  // the one added tuple
  for (size_t r = 0; r < rels.size(); ++r) {
    const Relation& existing = instance.relations()[r];
    CanonicalValuationEnumerator tuples = CandidateTuples(rels[r], adom);
    delta[0].rel = r;
    while (tuples.Next(&delta[0].tuple)) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      if (stats != nullptr) ++stats->extensions;
      if (existing.Contains(delta[0].tuple)) continue;
      if (stats != nullptr) ++stats->cc_checks;
      if (prepared.SatisfiesCCsDelta(instance, delta)) {
        if (witness != nullptr) {
          witness->relation = rels[r].name();
          witness->tuple = delta[0].tuple;
        }
        return true;
      }
    }
  }
  return false;
}

}  // namespace relcomp
