// Stable 64-bit hashing for fingerprints that must be reproducible across
// processes and runs: std::hash is implementation-defined and symbol
// interning ids depend on interning order, so fingerprints are always built
// from canonical words (tags, lengths, integers, symbol text).
#ifndef RELCOMP_UTIL_HASH_H_
#define RELCOMP_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace relcomp {

/// Incremental word hasher. Each 64-bit word costs one inline step: the
/// state is xored with the word, multiplied by an odd constant into 128
/// bits, and the two halves of the product are xored together. Folding in
/// the high half lets a change in the word's top bits reach the state's low
/// bits, which a 64-bit multiply alone cannot do (its top bit passes through
/// unmixed). Bytes are mixed eight at a time, little-endian, after their
/// length.
class StableHasher {
 public:
  StableHasher() = default;
  /// Starts from a caller-chosen seed mixed into the basis, so two hashers
  /// over the same words yield independent-looking digests (used for wide
  /// cache keys).
  explicit StableHasher(uint64_t seed) { Mix(seed); }

  /// Mixes a 64-bit word.
  StableHasher& Mix(uint64_t v) {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(state_ ^ v) * kMultiplier;
    state_ = static_cast<uint64_t>(product) ^
             static_cast<uint64_t>(product >> 64);
    return *this;
  }
  /// Mixes `len`, then the bytes as little-endian words (the last one
  /// zero-padded), so "ab","c" != "a","bc".
  StableHasher& Mix(const void* data, size_t len) {
    Mix(static_cast<uint64_t>(len));
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (; len >= 8; bytes += 8, len -= 8) Mix(LoadWord(bytes));
    if (len > 0) {
      uint64_t tail = 0;
      for (size_t i = 0; i < len; ++i) {
        tail |= static_cast<uint64_t>(bytes[i]) << (8 * i);
      }
      Mix(tail);
    }
    return *this;
  }
  /// Mixes the length and characters of `s`.
  StableHasher& Mix(std::string_view s) { return Mix(s.data(), s.size()); }

  uint64_t digest() const { return state_; }

 private:
  static constexpr uint64_t kBasis = 0x243f6a8885a308d3ULL;       // π
  static constexpr uint64_t kMultiplier = 0x9e3779b97f4a7c15ULL;  // φ, odd

  static uint64_t LoadWord(const unsigned char* bytes) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof word);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap64(word);
#endif
    return word;
  }

  uint64_t state_ = kBasis;
};

}  // namespace relcomp

#endif  // RELCOMP_UTIL_HASH_H_
