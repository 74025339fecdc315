#pragma once

#include <cstdint>

#include "src/common/rng.h"

namespace incshrink {

/// \brief Numeric Above Noisy Threshold (paper Algorithm 5).
///
/// The sparse-vector-technique core of sDPANT, in its plaintext (trusted)
/// form: observe a running count, fire when the noisy count crosses a noisy
/// threshold, then release a noisy value and refresh the threshold. Each
/// fire + release consumes (eps1 + eps2) where eps1 = eps2 = eps/2.
///
/// The secure protocol (`ShrinkAnt`) reproduces this logic with jointly
/// generated noise; this class backs the leakage-profile mechanism `M_ant`
/// and the statistical tests.
class NumericAboveNoisyThreshold {
 public:
  /// \param eps total privacy parameter per release cycle
  /// \param sensitivity query sensitivity Delta_f (the paper uses the
  ///        contribution bound b)
  /// \param threshold the public threshold theta
  NumericAboveNoisyThreshold(double eps, double sensitivity, double threshold,
                             Rng* rng);

  /// Feeds the current count. Returns true (and sets *release to the noisy
  /// count) when the noisy count crosses the noisy threshold; the threshold
  /// is refreshed and the caller is expected to reset its count.
  bool Observe(double count, double* release);

  double noisy_threshold() const { return noisy_threshold_; }
  uint64_t releases() const { return releases_; }

  /// Mutable SVT state for checkpointing (the noised threshold and the
  /// release counter; parameters and the Rng pointer are reconstructed from
  /// config). The threshold travels as raw IEEE-754 bits for exactness.
  struct State {
    uint64_t noisy_threshold_bits = 0;
    uint64_t releases = 0;
  };
  State ExportState() const;
  /// Overwrites the mutable state. Never draws: refreshing the threshold
  /// here would desynchronize the owner's policy stream.
  void RestoreState(const State& state);

  /// Redirects every later draw to `rng`: an owner that holds its generator
  /// beside this mechanism re-points it when the owner moves.
  void Rebind(Rng* rng) { rng_ = rng; }

 private:
  void RefreshThreshold();

  double eps1_;
  double eps2_;
  double sensitivity_;
  double threshold_;
  double noisy_threshold_ = 0;
  uint64_t releases_ = 0;
  Rng* rng_;
};

}  // namespace incshrink
