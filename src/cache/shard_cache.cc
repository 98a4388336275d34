#include "cache/shard_cache.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "cache/weigher.h"

namespace relcomp {
namespace cache {

namespace {

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t KeyHash(const RequestCacheKey& key) {
  return key.primary ^ (key.check * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

// ------------------------------------------------------- FrequencySketch --

FrequencySketch::FrequencySketch(size_t capacity_hint) {
  // ~2 counters per expected resident entry keeps estimate collisions rare
  // without letting a huge capacity hint balloon the sketch.
  const uint64_t counters = std::min<uint64_t>(
      NextPow2(std::max<uint64_t>(256, capacity_hint * 2)), 1ULL << 18);
  table_.assign(counters / 16, 0);  // 16 packed 4-bit counters per word
  counter_mask_ = counters - 1;
  sample_period_ = counters * 10;
}

uint64_t FrequencySketch::CounterIndex(uint64_t hash, int row) const {
  static constexpr uint64_t kSeeds[kRows] = {
      0xc3a5c85c97cb3127ULL, 0xb492b66fbe98f273ULL, 0x9ae16a3b2f90404fULL,
      0xcbf29ce484222325ULL};
  uint64_t h = (hash + static_cast<uint64_t>(row)) * kSeeds[row];
  h ^= h >> 32;
  return h & counter_mask_;
}

void FrequencySketch::Increment(uint64_t hash) {
  for (int row = 0; row < kRows; ++row) {
    const uint64_t index = CounterIndex(hash, row);
    uint64_t& word = table_[index >> 4];
    const int shift = static_cast<int>(index & 15) * 4;
    const uint64_t counter = (word >> shift) & 0xF;
    if (counter < 15) word += 1ULL << shift;  // saturate at 15
  }
  if (++additions_ >= sample_period_) {
    // Aging: halve every counter so the sketch tracks RECENT popularity —
    // without it, everything eventually saturates and admission degrades
    // to always-admit.
    for (uint64_t& word : table_) word = (word >> 1) & 0x7777777777777777ULL;
    additions_ /= 2;
  }
}

uint32_t FrequencySketch::Estimate(uint64_t hash) const {
  uint32_t estimate = 15;
  for (int row = 0; row < kRows; ++row) {
    const uint64_t index = CounterIndex(hash, row);
    const uint64_t counter = (table_[index >> 4] >> ((index & 15) * 4)) & 0xF;
    estimate = std::min(estimate, static_cast<uint32_t>(counter));
  }
  return estimate;
}

// ------------------------------------------------------------ ShardCache --

ShardCache::ShardCache(size_t max_entries)
    : max_entries_(max_entries), sketch_(max_entries) {}

ShardCache::~ShardCache() {
  if (budget_ != nullptr) budget_->Deregister(budget_id_);
}

void ShardCache::AttachBudget(CacheBudget* budget,
                              const std::shared_ptr<ShardCache>& self,
                              size_t floor_bytes) {
  budget_ = budget;
  budget_id_ = budget->Register(self, floor_bytes);
}

void ShardCache::AttachEvents(const CacheEventSink& events) {
  MutexLock lock(mu_);
  events_ = events;
  PublishGaugesLocked();
}

bool ShardCache::Get(const RequestCacheKey& key, Decision* out) {
  MutexLock lock(mu_);
  if (max_entries_ == 0) return false;
  sketch_.Increment(KeyHash(key));
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    if (events_.misses != nullptr) events_.misses->Inc();
    return false;
  }
  Entry& entry = *it->second;
  entry.touch = NextTick();
  if (entry.in_protected) {
    protected_.splice(protected_.begin(), protected_, it->second);
  } else {
    PromoteLocked(it->second);
  }
  ++hits_;
  if (events_.hits != nullptr) events_.hits->Inc();
  *out = entry.value;
  PublishColdnessLocked();
  return true;
}

bool ShardCache::Put(const RequestCacheKey& key, Decision value) {
  return PutInternal(key, std::move(value), /*restore=*/false);
}

bool ShardCache::Restore(const RequestCacheKey& key, Decision value) {
  return PutInternal(key, std::move(value), /*restore=*/true);
}

bool ShardCache::PutInternal(const RequestCacheKey& key, Decision value,
                             bool restore) {
  if (max_entries_ == 0) return false;
  const size_t entry_bytes = WeighDecision(value) + kEntryOverheadBytes;
  const uint64_t key_hash = KeyHash(key);
  // Budget reservation comes FIRST, and runs UNLOCKED: a refused insert
  // must leave this cache untouched (no entry may be sacrificed for an
  // insert that then never happens), and shedding the arbiter's victims
  // takes peer caches' mutexes — holding ours meanwhile could deadlock
  // two shards shedding into each other. An existing entry under the same
  // key stays resident (and charged) until the swap at the bottom, so a
  // refusal at any point leaves it serving; the transient old+new double
  // charge errs toward over-reservation, never under.
  if (budget_ != nullptr && !ReserveBudget(entry_bytes)) {
    MutexLock lock(mu_);
    ++admission_rejects_;
    if (events_.admission_rejects != nullptr) events_.admission_rejects->Inc();
    return false;
  }
  MutexLock lock(mu_);
  if (!restore) sketch_.Increment(key_hash);
  const bool overwrite = index_.find(key) != index_.end();
  if (!overwrite) {
    if (!restore) {
      // Admission gate, only under LOCAL pressure (a full entry table): a
      // candidate accessed less often than the resident entry it would
      // displace is not worth displacing it for. Byte-budget pressure is
      // deliberately NOT gated here — the displaced entry then lives in
      // whatever shard is globally coldest, and the CacheBudget arbiter
      // (not this shard's sketch) is the judge of that trade.
      const bool pressure = index_.size() >= max_entries_;
      const Entry* victim = pressure ? VictimLocked() : nullptr;
      if (victim != nullptr &&
          sketch_.Estimate(key_hash) < sketch_.Estimate(KeyHash(victim->key))) {
        ++admission_rejects_;
        if (events_.admission_rejects != nullptr) {
          events_.admission_rejects->Inc();
        }
        if (budget_ != nullptr) budget_->Release(budget_id_, entry_bytes);
        return false;
      }
    }
    while (index_.size() >= max_entries_) {
      if (EvictOneLocked() == 0) break;
    }
  }
  auto raced = index_.find(key);
  if (raced != index_.end()) RemoveLocked(raced->second);  // swap in ours
  probation_.push_front(
      Entry{key, std::move(value), entry_bytes, NextTick(), false});
  index_[key] = probation_.begin();
  bytes_ += entry_bytes;
  if (restore) ++restored_;
  EnforceProtectedCapLocked();  // evictions above may have shrunk bytes_
  PublishColdnessLocked();
  PublishGaugesLocked();
  return true;
}

bool ShardCache::ReserveBudget(size_t bytes) {
  if (budget_->TryCharge(budget_id_, bytes)) return true;  // fast path
  if (bytes > budget_->budget_bytes()) return false;       // can never fit
  // Over-budget negotiation, SERIALIZED across shards: without it, two
  // concurrent first inserts would each see the other's charged-but-not-
  // yet-resident bytes as unshebbable pressure and spuriously refuse
  // inserts that fit one after the other. TryCharge admits only within
  // budget, so resident bytes can never exceed it — the loop just frees
  // room, it never "overdrafts".
  MutexLock pressure(budget_->pressure_mu());
  int empty_rounds = 0;
  for (int spins = 0; spins < 1024; ++spins) {
    if (budget_->TryCharge(budget_id_, bytes)) return true;
    CacheBudget::Victim victim;
    size_t freed = 0;
    if (budget_->PickVictim(budget_id_, bytes, &victim)) {
      freed = victim.cache->ShedBytes(victim.bytes, victim.floor_bytes);
    }
    if (freed == 0) {
      // Nothing shed this round — no victim, or a victim whose CHARGED
      // bytes are a peer's reservation that has not landed as a resident
      // (sheddable) entry yet. That peer charged on the fast path and
      // inserts without needing pressure_mu, so yielding lets it land;
      // a run of empty rounds means it is genuinely floors all the way
      // down, and the insert is refused.
      if (++empty_rounds > 16) return false;
      std::this_thread::yield();
    } else {
      empty_rounds = 0;
    }
  }
  return false;
}

size_t ShardCache::ShedBytes(size_t target_bytes, size_t floor_bytes) {
  MutexLock lock(mu_);
  size_t freed = 0;
  while (freed < target_bytes) {
    const Entry* victim = VictimLocked();
    if (victim == nullptr) break;
    // Never shed past the floor: whole-entry eviction is coarse, so the
    // check is against the post-eviction total, not the target.
    if (bytes_ < victim->bytes + floor_bytes) break;
    freed += EvictOneLocked();
  }
  // Eviction drains probation first; re-balance so a shrunken cache is not
  // left all-protected (every future insert would be its own next victim).
  EnforceProtectedCapLocked();
  PublishColdnessLocked();
  PublishGaugesLocked();
  return freed;
}

void ShardCache::Clear() {
  MutexLock lock(mu_);
  if (budget_ != nullptr && bytes_ > 0) budget_->Release(budget_id_, bytes_);
  probation_.clear();
  protected_.clear();
  index_.clear();
  bytes_ = 0;
  protected_bytes_ = 0;
  PublishColdnessLocked();
  PublishGaugesLocked();
}

std::vector<std::pair<RequestCacheKey, Decision>> ShardCache::SnapshotEntries()
    const {
  MutexLock lock(mu_);
  std::vector<std::pair<RequestCacheKey, Decision>> entries;
  entries.reserve(index_.size());
  for (auto it = probation_.rbegin(); it != probation_.rend(); ++it) {
    entries.emplace_back(it->key, it->value);
  }
  for (auto it = protected_.rbegin(); it != protected_.rend(); ++it) {
    entries.emplace_back(it->key, it->value);
  }
  return entries;
}

size_t ShardCache::size() const {
  MutexLock lock(mu_);
  return index_.size();
}

size_t ShardCache::bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

CacheStats ShardCache::stats() const {
  MutexLock lock(mu_);
  CacheStats stats;
  stats.entries = index_.size();
  stats.bytes = bytes_;
  stats.protected_bytes = protected_bytes_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.admission_rejects = admission_rejects_;
  stats.restored = restored_;
  return stats;
}

void ShardCache::PromoteLocked(EntryList::iterator it) {
  Entry& entry = *it;
  protected_.splice(protected_.begin(), probation_, it);
  entry.in_protected = true;
  protected_bytes_ += entry.bytes;
  EnforceProtectedCapLocked();
}

void ShardCache::EnforceProtectedCapLocked() {
  const size_t cap =
      static_cast<size_t>(kProtectedFraction * static_cast<double>(bytes_));
  while (protected_bytes_ > cap && protected_.size() > 1) {
    auto tail = std::prev(protected_.end());
    tail->in_protected = false;
    protected_bytes_ -= tail->bytes;
    // Demoted to probation FRONT: it outlives genuinely cold probation
    // entries but is back in the eviction segment.
    probation_.splice(probation_.begin(), protected_, tail);
  }
}

const ShardCache::Entry* ShardCache::VictimLocked() const {
  if (!probation_.empty()) return &probation_.back();
  if (!protected_.empty()) return &protected_.back();
  return nullptr;
}

size_t ShardCache::EvictOneLocked() {
  EntryList::iterator victim;
  if (!probation_.empty()) {
    victim = std::prev(probation_.end());
  } else if (!protected_.empty()) {
    victim = std::prev(protected_.end());
  } else {
    return 0;
  }
  const size_t freed = victim->bytes;
  RemoveLocked(victim);
  ++evictions_;
  if (events_.evictions != nullptr) events_.evictions->Inc();
  return freed;
}

void ShardCache::RemoveLocked(EntryList::iterator it) {
  Entry& entry = *it;
  if (budget_ != nullptr) budget_->Release(budget_id_, entry.bytes);
  bytes_ -= entry.bytes;
  if (entry.in_protected) {
    protected_bytes_ -= entry.bytes;
    index_.erase(entry.key);
    protected_.erase(it);
  } else {
    index_.erase(entry.key);
    probation_.erase(it);
  }
}

void ShardCache::PublishColdnessLocked() {
  if (budget_ == nullptr) return;
  uint64_t coldest = std::numeric_limits<uint64_t>::max();  // empty: no victim
  if (!probation_.empty()) {
    coldest = probation_.back().touch;
  } else if (!protected_.empty()) {
    coldest = protected_.back().touch;
  }
  budget_->UpdateColdness(budget_id_, coldest);
}

void ShardCache::PublishGaugesLocked() {
  if (events_.resident_bytes != nullptr) {
    events_.resident_bytes->Set(static_cast<int64_t>(bytes_));
  }
  if (events_.resident_entries != nullptr) {
    events_.resident_entries->Set(static_cast<int64_t>(index_.size()));
  }
}

}  // namespace cache
}  // namespace relcomp
