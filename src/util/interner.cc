#include "util/interner.h"

#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "util/mutex.h"

namespace relcomp {
namespace {

// A name's record in the arena: its length as 4 bytes, then its bytes.
using Record = const char*;

constexpr size_t kChunkBytes = 64 * 1024;
constexpr SymbolId kFreeSlot = ~SymbolId{0};
constexpr size_t kInitialSlots = 1024;

std::string_view View(Record record) {
  uint32_t size;
  std::memcpy(&size, record, sizeof size);
  return {record + sizeof size, size};
}

size_t HashName(std::string_view name) {
  return std::hash<std::string_view>()(name);
}

// A single process-wide table: an append-only arena of names, the record
// of each id, and an open-addressing (linear probing) index from names to
// ids, kept at most half full.
struct InternTable {
  Mutex mu{LockRank::kInterner, "InternTable::mu"};
  std::vector<SymbolId> index GUARDED_BY(mu) =
      std::vector<SymbolId>(kInitialSlots, kFreeSlot);
  std::vector<Record> records GUARDED_BY(mu);
  std::vector<std::unique_ptr<char[]>> chunks GUARDED_BY(mu);
  char* cursor GUARDED_BY(mu) = nullptr;
  size_t left GUARDED_BY(mu) = 0;  // free bytes at `cursor`

  // Copies `name` into the arena. A name too long for a chunk gets its own
  // allocation; otherwise a full chunk's tail is abandoned.
  Record Store(std::string_view name) REQUIRES(mu) {
    const uint32_t size = static_cast<uint32_t>(name.size());
    const size_t bytes = sizeof size + name.size();
    char* out;
    if (bytes > kChunkBytes) {
      chunks.emplace_back(new char[bytes]);
      out = chunks.back().get();
    } else {
      if (bytes > left) {
        chunks.emplace_back(new char[kChunkBytes]);
        cursor = chunks.back().get();
        left = kChunkBytes;
      }
      out = cursor;
      cursor += bytes;
      left -= bytes;
    }
    std::memcpy(out, &size, sizeof size);
    std::memcpy(out + sizeof size, name.data(), name.size());
    return out;
  }

  void Grow() REQUIRES(mu) {
    std::vector<SymbolId> bigger(2 * index.size(), kFreeSlot);
    const size_t mask = bigger.size() - 1;
    for (SymbolId id : index) {
      if (id == kFreeSlot) continue;
      size_t slot = HashName(View(records[id])) & mask;
      while (bigger[slot] != kFreeSlot) slot = (slot + 1) & mask;
      bigger[slot] = id;
    }
    index.swap(bigger);
  }
};

InternTable& Table() {
  static InternTable* table = new InternTable();
  return *table;
}

}  // namespace

SymbolId InternSymbol(std::string_view name) {
  InternTable& t = Table();
  MutexLock lock(t.mu);
  const size_t mask = t.index.size() - 1;
  size_t slot = HashName(name) & mask;
  for (; t.index[slot] != kFreeSlot; slot = (slot + 1) & mask) {
    if (View(t.records[t.index[slot]]) == name) return t.index[slot];
  }
  const SymbolId id = static_cast<SymbolId>(t.records.size());
  assert(id != kFreeSlot);
  t.records.push_back(t.Store(name));
  t.index[slot] = id;
  if (2 * t.records.size() > t.index.size()) t.Grow();
  return id;
}

std::string_view SymbolName(SymbolId id) {
  InternTable& t = Table();
  // Resolve under the lock, read outside it: the arena never moves or
  // frees a name, and a name's bytes never change once it has an id.
  MutexLock lock(t.mu);
  assert(id < t.records.size());
  return View(t.records[id]);
}

size_t InternedSymbolCount() {
  InternTable& t = Table();
  MutexLock lock(t.mu);
  return t.records.size();
}

}  // namespace relcomp
