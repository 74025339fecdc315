#include "src/core/owner_client.h"

#include "src/common/logging.h"
#include "src/storage/checkpoint.h"
#include "src/storage/serialization.h"

namespace incshrink {

uint64_t DeriveOwnerShareSeed(uint64_t deployment_seed, int owner_index) {
  // Splitmix64 scramble of (deployment seed, owner index), salted with the
  // pre-transport engine's owner-rng constant so the streams stay disjoint
  // from the tenant/shard/replica derivations.
  uint64_t z = (deployment_seed ^ 0xD1B54A32D192ED03ull) +
               0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(owner_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

OwnerClient::OwnerClient(const UploadPolicyConfig& policy, uint32_t fixed_rows,
                         bool is_public, uint64_t policy_seed,
                         uint64_t share_seed, UploadChannel* channel)
    : uploader_(policy, fixed_rows, is_public, policy_seed),
      share_rng_(share_seed),
      channel_(channel) {
  INCSHRINK_CHECK(channel_ != nullptr);
}

bool OwnerClient::TryStep(const std::vector<LogicalRecord>& arrivals) {
  // Refuse before touching any state: a backpressured step must be
  // re-offerable later with identical results (clock, queue and RNG draws
  // all untouched). Capacity was checked, so the push below cannot fail.
  if (channel_->full()) {
    channel_->NoteBackpressure();
    return false;
  }
  ++t_;
  UploadFrame frame;
  frame.owner_step = t_;
  frame.arrivals = arrivals;
  frame.batch = uploader_.BuildBatch(t_, arrivals, &share_rng_);
  ++frames_sent_;
  rows_sent_ += frame.batch.size();
  INCSHRINK_CHECK(channel_->TryPush(EncodeUploadFrame(frame)));
  return true;
}

template <class A>
void Visit(A& a, FieldRef<A, OwnerClient> client) {
  Visit(a, client.uploader_);
  Visit(a, client.share_rng_);
  a.U64(client.t_);
  a.U64(client.frames_sent_);
  a.U64(client.rows_sent_);
  a.Expect("owner client state");
}

template void Visit(CheckpointWriter&, const OwnerClient&);
template void Visit(CheckpointReader&, OwnerClient&);

OwnerClient MakeOwner1(const IncShrinkConfig& config, UploadChannel* channel) {
  // Policy seeds match the pre-transport engine (config.seed + 101 / + 202)
  // so the DP-released batch-size sequences are unchanged.
  return OwnerClient(config.upload_policy1, config.upload_rows_t1,
                     /*is_public=*/false, config.seed + 101,
                     DeriveOwnerShareSeed(config.seed, 0), channel);
}

OwnerClient MakeOwner2(const IncShrinkConfig& config, UploadChannel* channel) {
  return OwnerClient(config.upload_policy2, config.upload_rows_t2,
                     config.t2_is_public, config.seed + 202,
                     DeriveOwnerShareSeed(config.seed, 1), channel);
}

SynchronousDeployment::SynchronousDeployment(const IncShrinkConfig& config)
    : engine_(config),
      owner1_(MakeOwner1(config, engine_.channel1())),
      owner2_(MakeOwner2(config, engine_.channel2())) {}

Status SynchronousDeployment::Step(const std::vector<LogicalRecord>& new1,
                                   const std::vector<LogicalRecord>& new2) {
  // Lockstep leaves every channel empty between steps, so these pushes can
  // never hit backpressure (capacity >= 1 is validated).
  INCSHRINK_CHECK(owner1_.TryStep(new1));
  if (engine_.config().view_kind != ViewKind::kFilter) {
    INCSHRINK_CHECK(owner2_.TryStep(new2));
  }
  return engine_.Step();
}

namespace {

constexpr uint32_t kTagEngine = CheckpointTag('E', 'N', 'G', ' ');
constexpr uint32_t kTagOwner1 = CheckpointTag('O', 'W', 'N', '1');
constexpr uint32_t kTagOwner2 = CheckpointTag('O', 'W', 'N', '2');

/// The envelope's field order for both archives. Writing embeds the
/// engine's container straight into its section; reading borrows it into
/// `engine_blob` for the caller to restore once the envelope has validated.
template <class A, class Driver>
Status VisitEnvelope(A& a, const SnapshotEnvelope& envelope,
                     uint64_t fingerprint, Engine* engine,
                     FieldRef<A, OwnerClient> owner1,
                     FieldRef<A, OwnerClient> owner2,
                     std::span<const uint8_t>* engine_blob,
                     const Driver& driver_sections) {
  VisitFingerprint(a, envelope.fingerprint_tag, fingerprint,
                   envelope.fingerprint_what, envelope.config_mismatch);
  if (driver_sections) driver_sections(a);
  a.BeginSection(kTagEngine);
  if constexpr (A::kRestoring) {
    a.Bytes(*engine_blob);
  } else {
    INCSHRINK_RETURN_NOT_OK(engine->SaveCheckpoint(&a));
  }
  a.EndSection();
  a.Expect(envelope.engine_what);
  VisitSection(a, kTagOwner1, owner1);
  VisitSection(a, kTagOwner2, owner2);
  return Status::OK();
}

constexpr SnapshotEnvelope kDeploymentEnvelope{
    CheckpointTag('D', 'F', 'G', ' '), "deployment fingerprint",
    "snapshot was taken under a different configuration",
    "embedded engine snapshot",
    "deployment snapshot exceeds checkpoint_max_bytes"};

}  // namespace

Result<std::vector<uint8_t>> SaveEnvelope(
    const SnapshotEnvelope& envelope, uint64_t fingerprint, Engine* engine,
    const OwnerClient& owner1, const OwnerClient& owner2,
    const std::function<void(CheckpointWriter&)>& driver_sections) {
  CheckpointWriter w;
  INCSHRINK_RETURN_NOT_OK(VisitEnvelope(w, envelope, fingerprint, engine,
                                        owner1, owner2, nullptr,
                                        driver_sections));
  std::vector<uint8_t> blob = w.Finish();
  if (blob.size() > engine->config().checkpoint_max_bytes) {
    return Status::OutOfRange(envelope.too_large);
  }
  return blob;
}

Status RestoreEnvelope(
    const SnapshotEnvelope& envelope, uint64_t fingerprint,
    std::span<const uint8_t> snapshot, Engine* engine, OwnerClient* owner1, OwnerClient* owner2,
    const std::function<void(CheckpointReader&)>& driver_sections) {
  INCSHRINK_ASSIGN_OR_RETURN(CheckpointReader r,
                             CheckpointReader::Open(snapshot));
  // Dry-run pass: the owner sections restore into freshly constructed
  // scratch clients (their constructors draw nothing shared with the
  // engine), so every fallible decode happens before any live object
  // changes. The engine restore is atomic on its own, and the final owner
  // commit is a pair of moves that cannot fail.
  OwnerClient scratch1 = MakeOwner1(engine->config(), engine->channel1());
  OwnerClient scratch2 = MakeOwner2(engine->config(), engine->channel2());
  std::span<const uint8_t> engine_blob;
  INCSHRINK_RETURN_NOT_OK(VisitEnvelope(r, envelope, fingerprint, engine,
                                        scratch1, scratch2, &engine_blob,
                                        driver_sections));
  INCSHRINK_RETURN_NOT_OK(r.Finish());

  INCSHRINK_RETURN_NOT_OK(engine->RestoreCheckpoint(engine_blob));
  *owner1 = std::move(scratch1);
  *owner2 = std::move(scratch2);
  return Status::OK();
}

Result<std::vector<uint8_t>> SynchronousDeployment::SaveCheckpoint() {
  return SaveEnvelope(kDeploymentEnvelope, ConfigFingerprint(engine_.config()),
                      &engine_, owner1_, owner2_);
}

Status SynchronousDeployment::RestoreCheckpoint(
    std::span<const uint8_t> snapshot) {
  return RestoreEnvelope(kDeploymentEnvelope,
                         ConfigFingerprint(engine_.config()), snapshot,
                         &engine_, &owner1_, &owner2_);
}

Status SynchronousDeployment::Run(
    const std::vector<std::vector<LogicalRecord>>& arrivals1,
    const std::vector<std::vector<LogicalRecord>>& arrivals2) {
  INCSHRINK_CHECK_EQ(arrivals1.size(), arrivals2.size());
  for (size_t i = 0; i < arrivals1.size(); ++i) {
    INCSHRINK_RETURN_NOT_OK(Step(arrivals1[i], arrivals2[i]));
  }
  return Status::OK();
}

}  // namespace incshrink
