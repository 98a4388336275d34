#include "core/minp.h"

#include "core/consistency.h"

namespace relcomp {
namespace {

// Is the partially closed ground world `instance` a *minimal* complete
// instance? Uses Lemma 4.7(b): it suffices to test single-tuple removals.
// Each removal leaves a subset of a closed instance, which is closed too
// (CCs are monotone).
Result<bool> MinimalCompleteWorld(GroundCheck& ground,
                                  const Instance& instance,
                                  const SearchOptions& options,
                                  SearchStats* stats) {
  Result<bool> complete = ground.IsComplete(instance, options, stats);
  if (!complete.ok()) return complete.status();
  if (!*complete) return false;
  SearchCheckpoint checkpoint(options, "minimality single-removal sweep",
                              "minp-sweep");
  for (size_t r = 0; r < instance.relations().size(); ++r) {
    for (const Tuple& t : instance.relations()[r].rows()) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      Instance smaller = instance;
      smaller.relations()[r].Erase(t);
      Result<bool> sub_complete = ground.IsComplete(smaller, options, stats);
      if (!sub_complete.ok()) return sub_complete.status();
      if (*sub_complete) return false;  // a smaller complete instance exists
    }
  }
  return true;
}

}  // namespace

Result<bool> MinpStrongGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const SearchOptions& options,
                              SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(instance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kMinpStrong));
  AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  GroundCheck ground(q, prepared, adom);
  // The one instance here that may not be partially closed.
  if (stats != nullptr) ++stats->cc_checks;
  if (!*prepared.SatisfiesCCs(instance)) return false;
  return MinimalCompleteWorld(ground, instance, options, stats);
}

Result<bool> MinpStrong(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kMinpStrong));
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  GroundCheck ground(q, prepared, adom);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  bool any = false;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    any = true;
    Result<bool> minimal = MinimalCompleteWorld(ground, world, options, stats);
    if (!minimal.ok()) return minimal.status();
    if (!*minimal) return false;
  }
  return any;
}

Result<bool> MinpViable(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kMinpViable));
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  GroundCheck ground(q, prepared, adom);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    Result<bool> minimal = MinimalCompleteWorld(ground, world, options, stats);
    if (!minimal.ok()) return minimal.status();
    if (*minimal) return true;
  }
  return false;
}

Result<bool> MinpWeak(const Query& q, const CInstance& cinstance,
                      const PreparedSetting& prepared,
                      const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kMinpWeak));
  Result<bool> complete = RcdpWeak(q, cinstance, prepared, options, stats);
  if (!complete.ok()) return complete.status();
  if (!*complete) return false;
  std::vector<std::pair<int, int>> positions = cinstance.AllRowPositions();
  if (positions.size() > 24) {
    return Status::ResourceExhausted(
        "MinpWeak enumerates all row subsets; 2^" +
        std::to_string(positions.size()) + " is too many");
  }
  uint64_t combos = uint64_t{1} << positions.size();
  SearchCheckpoint checkpoint(options, "weak-model minimality enumeration",
                              "minp-weak");
  // Skip the empty removal (∆ = ∅); every other subset is removed.
  for (uint64_t mask = 1; mask < combos; ++mask) {
    RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
    std::vector<std::pair<int, int>> removal;
    for (size_t i = 0; i < positions.size(); ++i) {
      if ((mask >> i) & 1) removal.push_back(positions[i]);
    }
    CInstance smaller = cinstance.RemoveRows(removal);
    Result<bool> sub = RcdpWeak(q, smaller, prepared, options, stats);
    if (!sub.ok()) return sub.status();
    if (*sub) return false;
  }
  return true;
}

Result<bool> MinpWeakCq(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options, SearchStats* stats) {
  RELCOMP_RETURN_IF_ERROR(
      CheckSchemaMatches(cinstance.schema(), prepared.schema()));
  RELCOMP_RETURN_IF_ERROR(
      CheckQuery(q, prepared.schema(), TableICell::kMinpWeak));
  if (q.language() != QueryLanguage::kCQ) {
    return Status::InvalidArgument(
        "MinpWeakCq implements the Lemma 5.7 dichotomy for CQ only");
  }
  CInstance empty(prepared.schema());
  Result<bool> empty_complete = RcdpWeak(q, empty, prepared, options, stats);
  if (!empty_complete.ok()) return empty_complete.status();
  if (*empty_complete) {
    return cinstance.TotalRows() == 0;
  }
  if (cinstance.TotalRows() != 1) return false;
  return IsConsistent(prepared, cinstance, options, stats);
}

}  // namespace relcomp
