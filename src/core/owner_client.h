#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/engine.h"
#include "src/core/upload_policy.h"
#include "src/net/upload_channel.h"
#include "src/relational/growing_table.h"
#include "src/storage/checkpoint.h"

namespace incshrink {

/// Share-randomness seed of owner `owner_index` (0 = T1, 1 = T2) of a
/// deployment rooted at `deployment_seed`: a splitmix64 substream of the
/// deployment seed, salted with the pre-transport engine's owner-rng
/// constant. Public and stable, so any driver (SynchronousDeployment, the
/// fleet, a standalone process) reconstructs the exact same owners.
uint64_t DeriveOwnerShareSeed(uint64_t deployment_seed, int owner_index);

/// \brief A standalone data owner: the client side of one upload channel.
///
/// Owns the record-synchronization policy state (OwnerUploader), the
/// owner-local share randomness, and the owner's logical clock — everything
/// that used to live fused inside Engine::Step. Each TryStep ingests one
/// step of logical arrivals, emits the policy-sized secret-shared batch,
/// serializes it into a wire frame (storage/serialization) and pushes it
/// onto the channel. The owner runs on its own clock: it may be stepped
/// ahead of the engine up to the channel capacity.
///
/// Every owner step pushes exactly one frame — a policy step that uploads
/// nothing still sends a zero-row frame (the frame's presence is the clock
/// tick; its *size* is the DP-protected observable), and the frame carries
/// this step's plaintext arrivals for evaluation-side ground truth.
class OwnerClient {
 public:
  /// \param fixed_rows   C_r of the fixed-size policy
  /// \param is_public    public relations upload unpadded, every step
  /// \param policy_seed  seed of the DP policy noise (matches the
  ///                     pre-transport engine: config.seed + 101 / + 202)
  /// \param share_seed   seed of the owner's sharing randomness
  /// \param channel      non-owning; must outlive the client
  OwnerClient(const UploadPolicyConfig& policy, uint32_t fixed_rows,
              bool is_public, uint64_t policy_seed, uint64_t share_seed,
              UploadChannel* channel);

  /// Advances the owner clock by one step with these arrivals and pushes
  /// the resulting frame. Returns false — with the clock, queue and RNG
  /// state untouched — when the channel refuses the frame (public
  /// backpressure); the caller re-offers the same arrivals later.
  bool TryStep(const std::vector<LogicalRecord>& arrivals);

  uint64_t clock() const { return t_; }
  /// Records received but not yet uploaded (DP-Sync's Theorem-15 logical
  /// gap) — the owner-side component of the composed error bound.
  uint64_t pending() const { return uploader_.pending(); }
  double PolicyEpsilon() const { return uploader_.PolicyEpsilon(); }
  const OwnerUploader& uploader() const { return uploader_; }
  UploadChannel* channel() { return channel_; }

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t rows_sent() const { return rows_sent_; }

  /// Checkpoint field order (src/storage/checkpoint.h) of the owner's full
  /// resumable state: the policy uploader, the share-randomness cursor, the
  /// logical clock and the lifetime counters. The channel backlog is
  /// engine-side state and is captured by the engine's snapshot. Restore into
  /// a scratch client constructed with the same config and seeds.
  template <class A>
  friend void Visit(A& a, FieldRef<A, OwnerClient> client);

 private:
  OwnerUploader uploader_;
  Rng share_rng_;
  UploadChannel* channel_;
  uint64_t t_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t rows_sent_ = 0;
};

/// \brief One full deployment — two owners, their channels (owned by the
/// engine) and the engine — driven in lockstep: each Step ticks both owners
/// once and then the engine once, so every frame is drained the step it is
/// produced.
///
/// This is the drop-in replacement for the fused pre-transport
/// `Engine::Step(new1, new2)` / `Run(arrivals)` API and reproduces it bit
/// for bit (the golden-transcript suite pins this). Async drivers — the
/// fleet with an owner lead, tests/upload_channel_test.cc — wire the same
/// pieces together by hand instead.
class SynchronousDeployment {
 public:
  explicit SynchronousDeployment(const IncShrinkConfig& config);

  /// Ticks owner 1 with `new1`, owner 2 with `new2` (join views only), then
  /// the engine once. Lockstep never overflows a channel (capacity >= 1).
  Status Step(const std::vector<LogicalRecord>& new1,
              const std::vector<LogicalRecord>& new2);

  /// Runs `Step` over aligned per-step arrival vectors.
  Status Run(const std::vector<std::vector<LogicalRecord>>& arrivals1,
             const std::vector<std::vector<LogicalRecord>>& arrivals2);

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  OwnerClient& owner1() { return owner1_; }
  OwnerClient& owner2() { return owner2_; }
  const OwnerClient& owner1() const { return owner1_; }
  const OwnerClient& owner2() const { return owner2_; }

  // Forwarders for the most common post-run reads, so driver code can treat
  // a deployment like the old fused engine.
  RunSummary Summary() const { return engine_.Summary(); }
  const std::vector<StepMetrics>& step_metrics() const {
    return engine_.step_metrics();
  }
  const Transcript& transcript() const { return engine_.transcript(); }

  /// Serializes the whole deployment — engine (with channel backlogs) and
  /// both owners — into one ICKP snapshot. Fails between-steps only
  /// (engine-side precondition) and respects config.checkpoint_max_bytes.
  Result<std::vector<uint8_t>> SaveCheckpoint();
  /// Restores a SaveCheckpoint blob into this deployment, which must have
  /// been constructed with the identical config (fingerprint-checked).
  /// Atomic: on any error the deployment is left in its prior state, except
  /// that a torn engine/owner mismatch can only arise from distinct blobs —
  /// within one valid blob all parts restore or none do.
  Status RestoreCheckpoint(std::span<const uint8_t> snapshot);

 private:
  Engine engine_;
  OwnerClient owner1_;
  OwnerClient owner2_;
};

/// Constructs the two owner clients of `config` against an engine's inbound
/// channels with the canonical seed derivation. Shared by
/// SynchronousDeployment and the fleet so both drive identical owners.
OwnerClient MakeOwner1(const IncShrinkConfig& config, UploadChannel* channel);
OwnerClient MakeOwner2(const IncShrinkConfig& config, UploadChannel* channel);

/// The ICKP envelope of one engine and its two owners, shared by
/// SynchronousDeployment and the fleet's tenant snapshots: a fingerprint
/// section, the driver's sections, the engine's snapshot nested in place as
/// 'ENG ', then 'OWN1' and 'OWN2'. The strings word the driver's rejections.
struct SnapshotEnvelope {
  uint32_t fingerprint_tag;
  const char* fingerprint_what;  ///< names a malformed fingerprint section
  const char* config_mismatch;   ///< FailedPrecondition on another config
  const char* engine_what;       ///< names a malformed engine section
  const char* too_large;         ///< OutOfRange past checkpoint_max_bytes
};

/// Saves `fingerprint` (the driver's config), `driver_sections` if set,
/// `engine` (between steps only) and the owners into one envelope.
Result<std::vector<uint8_t>> SaveEnvelope(
    const SnapshotEnvelope& envelope, uint64_t fingerprint, Engine* engine,
    const OwnerClient& owner1, const OwnerClient& owner2,
    const std::function<void(CheckpointWriter&)>& driver_sections = {});

/// Restores a SaveEnvelope blob: the owners and `driver_sections` decode
/// into scratch, the atomic engine restore reads its nested snapshot in
/// place, and only then do the owners commit by moves. On error nothing
/// changes (if the driver also commits its scratch only on OK).
Status RestoreEnvelope(
    const SnapshotEnvelope& envelope, uint64_t fingerprint,
    std::span<const uint8_t> snapshot, Engine* engine, OwnerClient* owner1, OwnerClient* owner2,
    const std::function<void(CheckpointReader&)>& driver_sections = {});

}  // namespace incshrink
