#include "core/rcdp.h"

namespace relcomp {

Result<bool> RcdpStrong(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options, SearchStats* stats,
                        CompletenessWitness* witness) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kRcdpStrong));
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  GroundCheck ground(q, prepared, adom);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Valuation mu;
  Instance world;
  bool any = false;
  while (true) {
    Result<bool> got = worlds.Next(&mu, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    any = true;
    Result<bool> complete = ground.IsComplete(world, options, stats, witness);
    if (!complete.ok()) return complete.status();
    if (!*complete) {
      if (witness != nullptr) {
        witness->world_valuation = mu;
        witness->note =
            "world " + mu.ToString() + " is incomplete: " + witness->note;
      }
      return false;
    }
  }
  if (!any) {
    if (witness != nullptr) {
      witness->note = "Mod(T, Dm, V) is empty: T is not partially closed";
    }
    return false;
  }
  return true;
}

Result<bool> RcdpViable(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options, SearchStats* stats,
                        Instance* witness_world) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kRcdpViable));
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  GroundCheck ground(q, prepared, adom);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    Result<bool> complete = ground.IsComplete(world, options, stats);
    if (!complete.ok()) return complete.status();
    if (*complete) {
      if (witness_world != nullptr) *witness_world = world;
      return true;
    }
  }
  return false;
}

Result<bool> RcdpWeak(const Query& q, const CInstance& cinstance,
                      const PreparedSetting& prepared,
                      const SearchOptions& options, SearchStats* stats,
                      CompletenessWitness* witness) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kRcdpWeak));
  // One extra fresh constant per column of the widest relation backs the
  // fresh-variable row of the Lemma 5.2 characterization.
  AdomContext adom = prepared.BuildAdom(cinstance, &q);

  // Pass 1: certain answers over Mod(T).
  Result<CertainAnswersResult> certain =
      CertainAnswers(q, cinstance, prepared, adom, options, stats);
  if (!certain.ok()) return certain.status();
  if (!certain->mod_nonempty) {
    if (witness != nullptr) {
      witness->note = "Mod(T, Dm, V) is empty: T is not partially closed";
    }
    return false;
  }

  // Pass 2: certain answers over all single-tuple partially closed
  // extensions of all worlds (sufficient by monotonicity).
  bool any_extension = false;
  Relation extension_certain;
  SearchCheckpoint checkpoint(options, "weak-model extension enumeration",
                              "weak-ext");

  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  const std::vector<RelationSchema>& rels = prepared.schema().relations();
  std::vector<DeltaRow> delta(1);  // the one added tuple
  Instance world;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    for (size_t r = 0; r < rels.size(); ++r) {
      const Relation& existing = world.relations()[r];
      CanonicalValuationEnumerator tuples = CandidateTuples(rels[r], adom);
      delta[0].rel = r;
      while (tuples.Next(&delta[0].tuple)) {
        RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
        if (stats != nullptr) ++stats->extensions;
        if (existing.Contains(delta[0].tuple)) continue;
        // The world is closed, so only the added tuple can break V.
        if (stats != nullptr) ++stats->cc_checks;
        if (!prepared.SatisfiesCCsDelta(world, delta)) continue;
        const Instance extended = PreparedSetting::WithDelta(world, delta);
        if (stats != nullptr) ++stats->query_evals;
        Relation answers = EvalOverAdom(q, extended, adom);
        if (!any_extension) {
          any_extension = true;
          extension_certain = std::move(answers);
        } else {
          extension_certain = extension_certain.Intersect(answers);
        }
        // Early exit: once the extension-certain set shrinks into the
        // certain answers, it can never escape them again.
        if (extension_certain.IsSubsetOf(certain->answers)) {
          return true;
        }
      }
    }
  }

  if (!any_extension) {
    // Ext(I) = ∅ for every world: weakly complete by definition.
    return true;
  }
  Relation gap = extension_certain.Difference(certain->answers);
  if (gap.empty()) return true;
  if (witness != nullptr) {
    witness->answer = gap.rows().front();
    witness->note =
        "tuple " + TupleToString(witness->answer) +
        " is certain over all partially closed extensions but is not a "
        "certain answer of T";
  }
  return false;
}

Result<bool> RcdpStrongGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const SearchOptions& options, SearchStats* stats,
                              CompletenessWitness* witness) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(instance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kRcdpStrong));
  AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  GroundCheck ground(q, prepared, adom);
  // The one instance here that may not be partially closed.
  if (stats != nullptr) ++stats->cc_checks;
  if (!*prepared.SatisfiesCCs(instance)) {
    if (witness != nullptr) {
      witness->note = "instance is not partially closed: a CC is violated";
    }
    return false;
  }
  return ground.IsComplete(instance, options, stats, witness);
}

}  // namespace relcomp
