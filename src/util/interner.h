// Global symbol interner: maps strings to dense 32-bit ids so that Value can
// be a cheap, trivially-copyable 64-bit word. Database constants (patient
// names, city names, ...) are interned once and compared by id thereafter.
//
// Interned names are never freed. Each costs its bytes plus about 24 B of
// bookkeeping: a 4-byte length in an append-only arena of 64 KiB chunks, an
// 8-byte record pointer in a table of blocks that never move, and its share
// of an open-addressing index of 4-byte ids kept at most half full. Over
// 200k 16-character names that measured 39.6 B a name (RSS growth).
//
// InternSymbol takes the table's lock; SymbolName and InternedSymbolCount
// do not: a record is published (release) before its id is handed out.
#ifndef RELCOMP_UTIL_INTERNER_H_
#define RELCOMP_UTIL_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace relcomp {

/// Dense id of an interned symbol.
using SymbolId = uint32_t;

/// Interns `name`, returning its stable id. Idempotent.
SymbolId InternSymbol(std::string_view name);

/// Returns the text of an id previously returned by InternSymbol. The view
/// stays valid for the life of the process.
std::string_view SymbolName(SymbolId id);

/// Number of symbols interned so far (monotone; used by tests).
size_t InternedSymbolCount();

}  // namespace relcomp

#endif  // RELCOMP_UTIL_INTERNER_H_
