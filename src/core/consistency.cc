#include "core/consistency.h"

namespace relcomp {

Result<bool> IsConsistent(const PreparedSetting& prepared,
                          const CInstance& cinstance,
                          const SearchOptions& options, SearchStats* stats,
                          Instance* witness_world) {
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
  AdomContext adom = prepared.BuildAdomForGround(instance, nullptr);
  SearchCheckpoint checkpoint(options, "extensibility search", "consistency");
  for (const RelationSchema& rel : prepared.schema().relations()) {
    const Relation& existing = instance.at(rel.name());
    CanonicalValuationEnumerator tuples = CandidateTuples(rel, adom);
    Tuple t;
    while (tuples.Next(&t)) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      if (stats != nullptr) ++stats->extensions;
      if (existing.Contains(t)) continue;
      Instance extended = instance;
      extended.AddTuple(rel.name(), t);
      if (stats != nullptr) ++stats->cc_checks;
      Result<bool> closed = prepared.SatisfiesCCs(extended);
      if (!closed.ok()) return closed.status();
      if (*closed) {
        if (witness != nullptr) {
          witness->relation = rel.name();
          witness->tuple = t;
        }
        return true;
      }
    }
  }
  return false;
}

}  // namespace relcomp
