#pragma once

#include <cstdint>
#include <limits>
#include <utility>

namespace incshrink {

/// Complete serialized state of an Rng: the four xoshiro256** words plus the
/// Box-Muller spare. Capturing and restoring this struct resumes the stream
/// at the exact cursor, so a checkpointed run continues bit-identically. The
/// cached normal is carried as raw IEEE-754 bits to keep the round trip exact
/// through byte-oriented snapshot formats.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  uint64_t cached_normal_bits = 0;
  bool have_cached_normal = false;
};

/// \brief Deterministic, fast pseudo-random generator (xoshiro256**).
///
/// Used for share randomization, dummy payloads, workload generation and the
/// party-contributed randomness that feeds joint noise generation. The
/// generator is seedable so every experiment in this repository is exactly
/// reproducible. It satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; distinct seeds yield independent-looking streams
  /// (seed expansion via splitmix64).
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Returns the next 64 uniform bits. Inline: this sits in the innermost
  /// loop of every batched resharing-mask draw and share-randomization path,
  /// where an out-of-line call per word was the dominant non-kernel cost.
  uint64_t Next64() {
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
  result_type operator()() { return Next64(); }

  /// Returns the next 32 uniform bits.
  uint32_t Next32() { return static_cast<uint32_t>(Next64() >> 32); }

  /// Returns a uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Returns a uniform double in [0, 1).
  double NextDouble();

  /// Returns a uniform double in the open interval (0, 1) — never 0, suitable
  /// for log-based samplers.
  double NextDoubleOpen();

  /// Samples from Exp(mean) via inversion.
  double Exponential(double mean);

  /// Samples from Lap(0, scale) via inversion (sign x Exp magnitude).
  double Laplace(double scale);

  /// Samples a Poisson variate with the given mean (Knuth for small mean,
  /// normal approximation above 64).
  uint64_t Poisson(double mean);

  /// Samples a standard normal variate (Box-Muller).
  double Normal(double mean, double stddev);

  /// Returns true with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Exports the full stream cursor for checkpointing. The exported state is
  /// a pure function of the seed and the number of draws so far — persisting
  /// it leaks nothing beyond what the (public) seed already determines.
  RngState ExportState() const;

  /// Overwrites the stream cursor with a previously exported state. After
  /// this call the generator produces exactly the draws the exporting
  /// generator would have produced next. Restore never draws.
  void RestoreState(const RngState& state);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Fisher-Yates shuffle driven by the seeded stream. This is the one
/// sanctioned plaintext shuffle: the `shuffle-outside-rng` rule in
/// tools/lint/secret_api.toml bans std::shuffle/random_shuffle everywhere
/// else so that every reordering in the repository is reproducible from an
/// explicit seed. (The *oblivious* shuffle over secret-shared rows is a
/// different animal — see src/oblivious/shuffle.h, which draws its
/// permutation from the protocol's jointly seeded resharing stream
/// instead.)
template <typename RandomIt>
void SeededShuffle(RandomIt first, RandomIt last, Rng* rng) {
  const auto n = static_cast<uint64_t>(last - first);
  for (uint64_t i = n; i > 1; --i) {
    const uint64_t j = rng->Uniform(i);
    using std::swap;
    swap(first[i - 1], first[j]);
  }
}

}  // namespace incshrink
