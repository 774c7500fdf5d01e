#ifndef KBOOST_TESTS_DIGEST_H_
#define KBOOST_TESTS_DIGEST_H_

// The fingerprint behind the pinned-realization tests: a pin digests every
// output of a seeded computation and compares it with a constant, so a
// change that draws different but self-consistent samples fails instead of
// passing every comparison of samples with each other.

#include <bit>
#include <cstdint>
#include <span>

namespace kboost {

/// FNV-1a over 64-bit words: a stable fingerprint.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Add(std::span<const uint32_t> words) {
    Add(words.size());
    for (const uint32_t w : words) Add(w);
  }
  /// A double's exact bits.
  void AddBits(double value) { Add(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace kboost

#endif  // KBOOST_TESTS_DIGEST_H_
