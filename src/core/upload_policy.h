#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dp/svt.h"
#include "src/relational/growing_table.h"
#include "src/secret/shared_rows.h"
#include "src/storage/checkpoint.h"

namespace incshrink {

/// \brief Owner-side record synchronization policy (paper Section 8
/// "Connecting with DP-Sync", following DP-Sync's private strategies).
///
/// The prototype default uploads a fixed-size padded block every step; the
/// DP policies instead release *DP-sized* batches so that even the owner's
/// upload pattern is differentially private. Composing an eps1-DP upload
/// policy with the eps2-DP view update protocol yields (eps1 + eps2)-DP for
/// the owner's data by sequential composition.
enum class UploadPolicyKind : uint8_t {
  kFixedSize,    ///< fixed C_r rows every step, padded (prototype default)
  kDpTimerSync,  ///< every sync_interval steps, upload pending + Lap(1/eps)
  kDpAntSync,    ///< SVT: upload when the pending count crosses a threshold
};

struct UploadPolicyConfig {
  UploadPolicyKind kind = UploadPolicyKind::kFixedSize;
  /// Owner-side privacy budget eps1 (record-insertion sensitivity is 1).
  double eps_sync = 1.0;
  /// kDpTimerSync: steps between uploads.
  uint32_t sync_interval = 5;
  /// kDpAntSync: pending-count threshold.
  double sync_theta = 10;
};

/// The owner-policy epsilon of a policy config (0 for the non-DP fixed
/// policy). Free-standing so the engine can compose epsilons from its
/// config without holding the owner-side state.
inline double UploadPolicyEpsilon(const UploadPolicyConfig& config) {
  return config.kind == UploadPolicyKind::kFixedSize ? 0.0 : config.eps_sync;
}

/// \brief Stateful per-owner uploader: queues logical arrivals and emits the
/// secret-shared, dummy-padded batch for each step under the configured
/// policy. The emitted batch size is the only thing the servers observe
/// about the owner's arrival process.
class OwnerUploader {
 public:
  /// \param fixed_rows   the C_r of the fixed-size policy
  /// \param is_public    public relations upload unpadded, every step
  OwnerUploader(const UploadPolicyConfig& config, uint32_t fixed_rows,
                bool is_public, uint64_t seed);

  /// The SVT draws through a pointer to policy_rng_, so a move re-points it
  /// at the destination's generator; the source is left empty.
  OwnerUploader(OwnerUploader&& other) noexcept;
  OwnerUploader& operator=(OwnerUploader&& other) noexcept;

  /// Enqueues this step's arrivals and returns the batch to upload (may be
  /// empty). `share_rng` provides the owner's sharing randomness.
  SharedRows BuildBatch(uint64_t t, const std::vector<LogicalRecord>& arrivals,
                        Rng* share_rng);

  /// Records received but not yet uploaded — DP-Sync's logical gap
  /// (Theorem 15), the owner-side component of the composed error bound.
  uint64_t pending() const { return queue_.size(); }

  /// The owner-policy epsilon (0 for the non-DP fixed policy).
  double PolicyEpsilon() const;

  const UploadPolicyConfig& config() const { return config_; }

  /// Checkpoint field order (src/storage/checkpoint.h) of the policy's
  /// mutable state: the policy RNG cursor, the pending queue (plaintext the
  /// owner holds anyway; a snapshot is owner-side state), an SVT flag and, for
  /// the SVT policy, the noised threshold and release counter. Restore into a
  /// scratch uploader constructed with the same policy config: restoring
  /// never draws and rejects a snapshot whose policy shape (SVT present or
  /// not) disagrees with the uploader's.
  template <class A>
  friend void Visit(A& a, FieldRef<A, OwnerUploader> uploader);

 private:
  /// Dequeues up to `take` real records and pads the batch to `rows` total.
  SharedRows Emit(size_t take, size_t rows, Rng* share_rng);

  UploadPolicyConfig config_;
  uint32_t fixed_rows_;
  bool is_public_;
  Rng policy_rng_;  ///< owner-local randomness for the DP policy noise
  std::vector<LogicalRecord> queue_;
  std::unique_ptr<NumericAboveNoisyThreshold> svt_;
};

}  // namespace incshrink
