#ifndef KBOOST_UTIL_RNG_H_
#define KBOOST_UTIL_RNG_H_

#include <cstdint>

namespace kboost {

/// Deterministic, fast pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64 so that any 64-bit seed yields a well-mixed state. One Rng per
/// thread; instances are cheap (32 bytes) and copyable, and the same seed
/// always reproduces the same stream — experiments are replayable.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value. Inline: this sits on the innermost loop of every
  /// sampler (one draw per examined edge), so the call must disappear.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform 32-bit value.
  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Bernoulli draw with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Exponential draw with the given mean (mean > 0).
  double NextExponential(double mean);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// SplitMix64 step; exposed for seeding tables deterministically.
uint64_t SplitMix64(uint64_t& state);

}  // namespace kboost

#endif  // KBOOST_UTIL_RNG_H_
