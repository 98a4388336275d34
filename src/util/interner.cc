#include "util/interner.h"

#include <atomic>
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

// The id → record table: block b holds kFirstBlock << b records, ids
// kFirstBlock·(2^b − 1) onwards, so kBlocks blocks cover every SymbolId and
// the table grows like a vector without ever moving a record. The first
// block is 128 KiB, glibc malloc's default mmap threshold: each block is a
// mapping of its own whose pages become resident only as records are
// stored, and no never-freed block sits in the heap.
constexpr int kFirstBlockBits = 14;
constexpr size_t kFirstBlock = size_t{1} << kFirstBlockBits;
constexpr int kBlocks = 32 - kFirstBlockBits + 1;

struct Slot {
  int block;
  size_t offset;
};

Slot Locate(SymbolId id) {
  const uint64_t i = uint64_t{id} + kFirstBlock;
  const int block = 63 - __builtin_clzll(i) - kFirstBlockBits;
  return {block, static_cast<size_t>(i - (uint64_t{kFirstBlock} << block))};
}

// A single process-wide table: an append-only arena of names, the record
// of each id, and an open-addressing (linear probing) index from names to
// ids, kept at most half full.
struct InternTable {
  Mutex mu{LockRank::kInterner, "InternTable::mu"};
  std::vector<SymbolId> index GUARDED_BY(mu) =
      std::vector<SymbolId>(kInitialSlots, kFreeSlot);
  // Written under `mu`, read without it. A record is stored (release)
  // before its id is handed out or counted, and a block before its first
  // record, so a reader holding a handed-out id sees both (acquire).
  std::atomic<std::atomic<Record>*> blocks[kBlocks] = {};
  std::atomic<size_t> count{0};  // ids handed out so far
  std::vector<std::unique_ptr<char[]>> chunks GUARDED_BY(mu);
  char* cursor GUARDED_BY(mu) = nullptr;
  size_t left GUARDED_BY(mu) = 0;  // free bytes at `cursor`

  Record RecordOf(SymbolId id) const {
    const Slot slot = Locate(id);
    return blocks[slot.block]
        .load(std::memory_order_acquire)[slot.offset]
        .load(std::memory_order_acquire);
  }

  // Gives `record` the next id. Blocks are allocated uninitialized, so a
  // block's pages are touched only as its records are stored.
  SymbolId Append(Record record) REQUIRES(mu) {
    const size_t n = count.load(std::memory_order_relaxed);
    const SymbolId id = static_cast<SymbolId>(n);
    assert(id != kFreeSlot);
    const Slot slot = Locate(id);
    std::atomic<Record>* block =
        blocks[slot.block].load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = new std::atomic<Record>[kFirstBlock << slot.block];
      blocks[slot.block].store(block, std::memory_order_release);
    }
    block[slot.offset].store(record, std::memory_order_release);
    count.store(n + 1, std::memory_order_release);
    return id;
  }

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
      size_t slot = HashName(View(RecordOf(id))) & mask;
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
    if (View(t.RecordOf(t.index[slot])) == name) return t.index[slot];
  }
  const SymbolId id = t.Append(t.Store(name));
  t.index[slot] = id;
  if (2 * (size_t{id} + 1) > t.index.size()) t.Grow();
  return id;
}

std::string_view SymbolName(SymbolId id) {
  // No lock: the arena never moves or frees a name, a name's bytes never
  // change once it has an id, and the record table never moves a record.
  InternTable& t = Table();
  assert(id < t.count.load(std::memory_order_acquire));
  return View(t.RecordOf(id));
}

size_t InternedSymbolCount() {
  return Table().count.load(std::memory_order_acquire);
}

}  // namespace relcomp
