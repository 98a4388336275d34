// Value: a constant of the database domain `dom(A)` — either a 64-bit-ish
// integer or an interned symbol. Trivially copyable, totally ordered, cheap
// to hash; relations store sorted tuples of Values.
#ifndef RELCOMP_DATA_VALUE_H_
#define RELCOMP_DATA_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/interner.h"

namespace relcomp {

/// A ground constant: integer or interned symbol.
class Value {
 public:
  /// Default-constructs the integer 0 (needed for container use).
  Value() : kind_(Kind::kInt), payload_(0) {}

  /// An integer constant.
  static Value Int(int64_t v) { return Value(Kind::kInt, v); }
  /// A symbolic constant, interned globally.
  static Value Sym(std::string_view name) {
    return Value(Kind::kSym, static_cast<int64_t>(InternSymbol(name)));
  }
  /// A symbolic constant from an already-interned id.
  static Value SymId(SymbolId id) {
    return Value(Kind::kSym, static_cast<int64_t>(id));
  }

  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_sym() const { return kind_ == Kind::kSym; }

  /// Integer payload; requires is_int().
  int64_t as_int() const { return payload_; }
  /// Symbol id; requires is_sym().
  SymbolId sym_id() const { return static_cast<SymbolId>(payload_); }
  /// Symbol text; requires is_sym().
  std::string_view sym_name() const { return SymbolName(sym_id()); }

  friend bool operator==(const Value& a, const Value& b) {
    return a.kind_ == b.kind_ && a.payload_ == b.payload_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    return a.payload_ < b.payload_;
  }

  /// Renders ints as digits and symbols as their text.
  std::string ToString() const;

  /// Hash suitable for unordered containers.
  size_t Hash() const {
    return std::hash<int64_t>()(payload_ * 2 +
                                (kind_ == Kind::kSym ? 1 : 0));
  }

 private:
  enum class Kind : uint8_t { kInt = 0, kSym = 1 };
  Value(Kind kind, int64_t payload) : kind_(kind), payload_(payload) {}

  Kind kind_;
  int64_t payload_;
};

}  // namespace relcomp

namespace std {
template <>
struct hash<relcomp::Value> {
  size_t operator()(const relcomp::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // RELCOMP_DATA_VALUE_H_
