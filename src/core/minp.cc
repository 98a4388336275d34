#include "core/minp.h"

#include "core/consistency.h"

namespace relcomp {
namespace {

// Is the ground world `instance` a *minimal* complete instance? Uses
// Lemma 4.7(b): it suffices to test single-tuple removals.
Result<bool> MinimalCompleteWorld(const Query& q, const Instance& instance,
                                  const PreparedSetting& prepared,
                                  const AdomContext& adom,
                                  const SearchOptions& options,
                                  SearchStats* stats) {
  Result<bool> complete =
      IsCompleteGround(q, instance, prepared, adom, options, stats, nullptr);
  if (!complete.ok()) return complete.status();
  if (!*complete) return false;
  SearchCheckpoint checkpoint(options, "minimality single-removal sweep", "minp-sweep");
  for (const Relation& rel : instance.relations()) {
    for (const Tuple& t : rel.rows()) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      Instance smaller = instance;
      smaller.RemoveTuple(rel.schema().name(), t);
      Result<bool> sub_complete = IsCompleteGround(q, smaller, prepared, adom,
                                                   options, stats, nullptr);
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
  AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  return MinimalCompleteWorld(q, instance, prepared, adom, options, stats);
}

Result<bool> MinpStrong(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options, SearchStats* stats) {
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  bool any = false;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    any = true;
    Result<bool> minimal =
        MinimalCompleteWorld(q, world, prepared, adom, options, stats);
    if (!minimal.ok()) return minimal.status();
    if (!*minimal) return false;
  }
  return any;
}

Result<bool> MinpViable(const Query& q, const CInstance& cinstance,
                        const PreparedSetting& prepared,
                        const SearchOptions& options, SearchStats* stats) {
  AdomContext adom = prepared.BuildAdom(cinstance, &q);
  ModEnumerator worlds(cinstance, prepared, adom, options, stats);
  Instance world;
  while (true) {
    Result<bool> got = worlds.Next(nullptr, &world);
    if (!got.ok()) return got.status();
    if (!*got) break;
    Result<bool> minimal =
        MinimalCompleteWorld(q, world, prepared, adom, options, stats);
    if (!minimal.ok()) return minimal.status();
    if (*minimal) return true;
  }
  return false;
}

Result<bool> MinpWeak(const Query& q, const CInstance& cinstance,
                      const PreparedSetting& prepared,
                      const SearchOptions& options, SearchStats* stats) {
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
  SearchCheckpoint checkpoint(options, "weak-model minimality enumeration", "minp-weak");
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
  if (q.language() != QueryLanguage::kCQ) {
    return Status::InvalidArgument(
        "MinpWeakCq implements the Lemma 5.7 dichotomy for CQ only");
  }
  CInstance empty(prepared.schema());
  Result<bool> empty_complete =
      RcdpWeak(q, empty, prepared, options, stats);
  if (!empty_complete.ok()) return empty_complete.status();
  if (*empty_complete) {
    return cinstance.TotalRows() == 0;
  }
  if (cinstance.TotalRows() != 1) return false;
  return IsConsistent(prepared, cinstance, options, stats);
}

}  // namespace relcomp
