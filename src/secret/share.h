#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace incshrink {

/// Ring element of Z_m with m = 2^32 — the ring the paper's XOR-based
/// (2,2)-secret sharing operates over (Section 3).
using Word = uint32_t;

/// Bit width of the ring Z_2^32 used for circuit cost accounting.
inline constexpr uint64_t kWordBits = 32;

/// \brief A logical pair of XOR shares of one ring element.
///
/// Physically the two components live on different servers; this struct is
/// only materialized inside the simulated 2PC runtime (the "ideal
/// functionality") and in tests.
struct WordShares {
  Word s0 = 0;  ///< Share held by server S0.
  Word s1 = 0;  ///< Share held by server S1.

  bool operator==(const WordShares&) const = default;
};

/// share(x): samples x0 uniformly from Z_2^32, sets x1 = x XOR x0 (paper
/// Section 3). The caller supplies the randomness source so parties can
/// contribute their own randomness (Appendix A.2).
WordShares ShareWord(Word value, Rng* rng);

/// recover([x]): x = x0 XOR x1.
inline Word RecoverWord(const WordShares& shares) {
  return shares.s0 ^ shares.s1;
}

/// Re-randomizes a sharing without changing the secret: both shares are XORed
/// with the same fresh mask. Used when counters are re-shared after updates.
WordShares RerandomizeWord(const WordShares& shares, Rng* rng);

/// Shares every element of `values`, appending one share vector per party.
void ShareWords(const std::vector<Word>& values, Rng* rng,
                std::vector<Word>* out0, std::vector<Word>* out1);

/// Recovers a vector of secrets from aligned per-party share vectors.
/// The two inputs must have equal length.
std::vector<Word> RecoverWords(const std::vector<Word>& shares0,
                               const std::vector<Word>& shares1);

}  // namespace incshrink
