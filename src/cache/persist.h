// Versioned, checksummed binary snapshots of shard result caches, for
// warm-starting a restarted service: the decisions a previous process
// computed (verdict, stats, note, and the DEEP counterexample witness) are
// serialized keyed by (setting fingerprint, request cache key) and replayed
// into a fresh shard's cache when a setting with a MATCHING fingerprint
// registers — a stale snapshot (master data changed, so the fingerprint
// moved) is skipped rather than served.
//
// Format (all integers little-endian):
//   "RCCS" magic | u32 version | u64 payload size | u64 checksum
//   (StableHasher over the payload)
//   payload: u64 shard count, then per shard:
//     setting fingerprint (2 × u64, the dual-digest registry key)
//     u64 entry count, then per entry:
//       request cache key (2 × u64)
//       the Decision: status (u32 code + string), answer, note, the five
//       SearchStats counters, and an optional CompletenessWitness — whose
//       instances serialize their schemas and every Value symbolically
//       (symbol TEXT, not interner id: interner ids are assigned in first-
//       touch order and do not survive a restart).
//
// Version 2 keys entries by the structural fingerprints (core/fingerprint.h);
// a version 1 snapshot's keys were derived from rendered text and can never
// match, so it is refused with kVersionMismatch.
//
// Entries are ordered coldest → hottest so a restore replayed in file order
// reproduces the cache's recency order. Loading verifies magic, version,
// size, and checksum before trusting a single byte; any mismatch or
// truncation fails with a Status instead of a torn cache.
#ifndef RELCOMP_CACHE_PERSIST_H_
#define RELCOMP_CACHE_PERSIST_H_

#include <string>
#include <utility>
#include <vector>

#include "service/decision.h"

namespace relcomp {
namespace cache {

/// One shard's cache image: the owning setting's dual-digest fingerprint
/// and its entries, coldest first.
struct SnapshotShard {
  RequestCacheKey setting_key;
  std::vector<std::pair<RequestCacheKey, Decision>> entries;
};

/// A whole service's cache image.
struct Snapshot {
  std::vector<SnapshotShard> shards;

  size_t TotalEntries() const {
    size_t total = 0;
    for (const SnapshotShard& shard : shards) total += shard.entries.size();
    return total;
  }
};

/// Serializes `snapshot` to the in-memory format above.
std::string EncodeSnapshot(const Snapshot& snapshot);

/// Parses bytes produced by EncodeSnapshot. kCorruption on a bad magic, a
/// checksum mismatch, an undecodable payload or trailing bytes; kDataLoss
/// on a payload size mismatch or a truncated read; kVersionMismatch on an
/// unsupported format version.
Result<Snapshot> DecodeSnapshot(const std::string& bytes);

/// Writes the snapshot to `path` atomically (temp file + rename), so a
/// crash mid-save never leaves a torn snapshot at the target path. kIoError
/// when the temp file cannot be opened, written or renamed.
Status SaveSnapshot(const Snapshot& snapshot, const std::string& path);

/// Reads and verifies a snapshot from `path`; kNotFound when it cannot be
/// opened.
Result<Snapshot> LoadSnapshot(const std::string& path);

}  // namespace cache
}  // namespace relcomp

#endif  // RELCOMP_CACHE_PERSIST_H_
