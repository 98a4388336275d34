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
  AdomContext adom = prepared.BuildAdomForGround(instance, nullptr);
  SearchCheckpoint checkpoint(options, "extensibility search", "consistency");
  const std::vector<RelationSchema>& rels = prepared.schema().relations();
  for (size_t r = 0; r < rels.size(); ++r) {
    const Relation& existing = instance.relations()[r];
    CanonicalValuationEnumerator tuples = CandidateTuples(rels[r], adom);
    Tuple t;
    while (tuples.Next(&t)) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      if (stats != nullptr) ++stats->extensions;
      if (existing.Contains(t)) continue;
      Instance extended = instance;
      extended.relations()[r].Insert(t);
      if (stats != nullptr) ++stats->cc_checks;
      if (*prepared.SatisfiesCCs(extended)) {
        if (witness != nullptr) {
          witness->relation = rels[r].name();
          witness->tuple = t;
        }
        return true;
      }
    }
  }
  return false;
}

}  // namespace relcomp
