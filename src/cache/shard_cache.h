// ShardCache: the byte-weighted result cache behind one setting shard.
// Three ideas compose:
//
//   * SEGMENTED LRU — entries land in a probation segment and are promoted
//     to a protected segment on re-reference; eviction drains probation
//     first, so a one-shot scan churns probation while the re-referenced
//     working set rides out the flood in protected. The protected segment
//     is capped at a fraction of resident bytes (tail demoted back to
//     probation), so it cannot monopolize the cache.
//   * FREQUENCY-SKETCH ADMISSION — a count-min sketch of recent accesses
//     (4-bit counters, periodically halved) gatekeeps inserts under local
//     entry-capacity pressure: a candidate seen LESS often than the
//     eviction victim it would displace is refused admission (counted, not
//     an error — the decision was still computed, it just isn't worth
//     caching), so cold one-shot results cannot flush warmer ones.
//     Byte-budget pressure is NOT sketch-gated: there the displaced entry
//     lives in the globally coldest shard, and the CacheBudget arbiter
//     owns that trade.
//   * SHARED BYTE BUDGET — entry bytes (weigher.h) are charged to an
//     optional service-wide CacheBudget; when a charge overflows it, the
//     cache sheds the arbiter's chosen victims (the globally coldest
//     shards, floors respected) before making its own entry resident, so
//     total resident bytes across every shard never exceed the budget.
//
// Thread safety: fully internally synchronized — callers need no external
// lock, because budget pressure makes OTHER shards' caches shed entries
// concurrently with their owners' reads.
// The internal mutex is never held while acquiring another cache's mutex
// (see budget.h for the lock order), and Get copies the Decision out under
// the lock (a returned pointer could dangle the moment a peer shard sheds).
#ifndef RELCOMP_CACHE_SHARD_CACHE_H_
#define RELCOMP_CACHE_SHARD_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/budget.h"
#include "obs/metrics.h"
#include "service/decision.h"
#include "util/mutex.h"

namespace relcomp {
namespace cache {

/// Count-min sketch over 4-bit saturating counters with periodic aging
/// (every counter halved once the increment count reaches the sample
/// period), TinyLFU-style: approximate access frequency in O(1) space,
/// biased toward the recent past.
class FrequencySketch {
 public:
  /// Sizes the sketch for roughly `capacity_hint` distinct keys.
  explicit FrequencySketch(size_t capacity_hint);

  /// Records one access of the key with the given 64-bit hash.
  void Increment(uint64_t hash);
  /// Estimated access count (min over the hash rows, saturated at 15).
  uint32_t Estimate(uint64_t hash) const;

 private:
  static constexpr int kRows = 4;
  uint64_t CounterIndex(uint64_t hash, int row) const;

  std::vector<uint64_t> table_;  ///< 16 packed 4-bit counters per word
  uint64_t counter_mask_ = 0;    ///< counters per table == mask + 1
  uint64_t sample_period_ = 0;   ///< increments between agings
  uint64_t additions_ = 0;
};

/// Cumulative cache-local statistics (monotone except entries/bytes, which
/// are gauges). `hits`/`misses` count Get outcomes at THIS layer — unlike
/// EngineCounters::cache_hits, coalesced requests never reach it.
struct CacheStats {
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t protected_bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;          ///< entries removed by any pressure
  uint64_t admission_rejects = 0;  ///< inserts refused (sketch or budget)
  uint64_t restored = 0;           ///< entries inserted from a snapshot
  /// Lifetime Get hit ratio; 0 before the first lookup.
  double hit_ratio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Live metric instruments the cache reports events into, alongside its
/// own cumulative CacheStats. All pointers optional (null = unreported)
/// and externally owned (a MetricsRegistry's; must outlive the cache).
/// Counters fire at the event site; gauges are republished after every
/// mutation, so scrapes see resident bytes/entries without polling stats().
struct CacheEventSink {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Counter* admission_rejects = nullptr;
  obs::Gauge* resident_bytes = nullptr;
  obs::Gauge* resident_entries = nullptr;
};

class ShardCache {
 public:
  /// `max_entries` is the entry-count capacity; 0 disables the cache
  /// entirely — Put stores nothing, Get always misses.
  explicit ShardCache(size_t max_entries);
  ~ShardCache();
  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

  /// Joins the shared budget. Must be called before the first Put and
  /// requires `self` to be the shared_ptr owning this cache (the arbiter
  /// hands it to peer shards as a victim). `budget` must outlive this
  /// cache; the destructor deregisters.
  void AttachBudget(CacheBudget* budget,
                    const std::shared_ptr<ShardCache>& self,
                    size_t floor_bytes) EXCLUDES(mu_);

  /// Points cache events at live metric instruments. Call before the cache
  /// is shared across threads (typically right after construction).
  void AttachEvents(const CacheEventSink& events) EXCLUDES(mu_);

  /// Copies the cached decision into `*out` and refreshes its recency
  /// (second touch promotes probation → protected). False on miss.
  bool Get(const RequestCacheKey& key, Decision* out) EXCLUDES(mu_);

  /// Inserts (or overwrites) a decision. Returns false when the entry was
  /// NOT admitted: the cache is disabled, the sketch refused a cold
  /// candidate under pressure, or the shared budget could not make room
  /// even after shedding. A refused insert leaves the cache unchanged
  /// except for the admission_rejects counter.
  bool Put(const RequestCacheKey& key, Decision value) EXCLUDES(mu_);

  /// Put without the admission filter, counted as `restored` — the
  /// snapshot warm-start path (entries earned their place in a previous
  /// process; refusing them on a cold sketch would defeat persistence).
  bool Restore(const RequestCacheKey& key, Decision value) EXCLUDES(mu_);

  /// Evicts coldest-first (probation tail, then protected tail) until
  /// `target_bytes` have been freed or evicting further would drop the
  /// resident total below `floor_bytes`. Returns bytes actually freed.
  /// Called by PEER shards under budget pressure; thread-safe.
  size_t ShedBytes(size_t target_bytes, size_t floor_bytes) EXCLUDES(mu_);

  /// Drops every entry (budget released, cumulative stats preserved).
  void Clear() EXCLUDES(mu_);

  /// Resident entries, coldest first (probation tail → head, then
  /// protected tail → head), so replaying the snapshot through Restore in
  /// order reproduces the recency order. Decisions are deep-copied.
  std::vector<std::pair<RequestCacheKey, Decision>> SnapshotEntries() const
      EXCLUDES(mu_);

  size_t capacity() const { return max_entries_; }
  size_t size() const EXCLUDES(mu_);
  size_t bytes() const EXCLUDES(mu_);
  CacheStats stats() const EXCLUDES(mu_);

 private:
  struct Entry {
    RequestCacheKey key;
    Decision value;
    size_t bytes = 0;
    uint64_t touch = 0;
    bool in_protected = false;
  };
  using EntryList = std::list<Entry>;

  bool PutInternal(const RequestCacheKey& key, Decision value, bool restore)
      EXCLUDES(mu_);
  /// Makes `bytes` admissible against the shared budget: charge, then shed
  /// the arbiter's victims until under budget. False = infeasible (charge
  /// rolled back).
  bool ReserveBudget(size_t bytes) EXCLUDES(mu_);

  void PromoteLocked(EntryList::iterator it) REQUIRES(mu_);
  void EnforceProtectedCapLocked() REQUIRES(mu_);
  /// Evicts one entry, coldest-first; returns its bytes (0 when empty).
  size_t EvictOneLocked() REQUIRES(mu_);
  void RemoveLocked(EntryList::iterator it) REQUIRES(mu_);
  /// Coldest resident stamp → budget registration (lock-free store).
  void PublishColdnessLocked() REQUIRES(mu_);
  /// Resident bytes/entries → the event sink's gauges.
  void PublishGaugesLocked() REQUIRES(mu_);
  const Entry* VictimLocked() const REQUIRES(mu_);

  /// Resident-byte share the protected segment may occupy before its tail
  /// is demoted back to probation.
  static constexpr double kProtectedFraction = 0.8;

  const size_t max_entries_;
  // Written once by AttachBudget before the cache is shared across threads,
  // then read without the lock (ReserveBudget and the destructor must call
  // the budget with mu_ released) — init-once, not mu_-guarded.
  CacheBudget* budget_ = nullptr;
  uint64_t budget_id_ = 0;

  mutable Mutex mu_{LockRank::kCache, "ShardCache::mu_"};
  CacheEventSink events_ GUARDED_BY(mu_);
  EntryList probation_ GUARDED_BY(mu_);
  EntryList protected_ GUARDED_BY(mu_);
  std::unordered_map<RequestCacheKey, EntryList::iterator, RequestCacheKeyHash>
      index_ GUARDED_BY(mu_);
  FrequencySketch sketch_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  size_t protected_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t admission_rejects_ GUARDED_BY(mu_) = 0;
  uint64_t restored_ GUARDED_BY(mu_) = 0;
};

}  // namespace cache
}  // namespace relcomp

#endif  // RELCOMP_CACHE_SHARD_CACHE_H_
