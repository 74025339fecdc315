#include "src/core/upload_policy.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/dp/laplace.h"
#include "src/oblivious/formats.h"
#include "src/relational/encode.h"

namespace incshrink {

OwnerUploader::OwnerUploader(const UploadPolicyConfig& config,
                             uint32_t fixed_rows, bool is_public,
                             uint64_t seed)
    : config_(config), fixed_rows_(fixed_rows), is_public_(is_public),
      policy_rng_(seed ^ 0x5851F42D4C957F2Dull) {
  if (config_.kind == UploadPolicyKind::kDpAntSync) {
    // Record-insertion sensitivity is 1 for the owner's pending counter.
    svt_ = std::make_unique<NumericAboveNoisyThreshold>(
        config_.eps_sync / 2, /*sensitivity=*/1.0, config_.sync_theta,
        &policy_rng_);
  }
}

OwnerUploader::OwnerUploader(OwnerUploader&& other) noexcept
    : config_(other.config_), fixed_rows_(other.fixed_rows_),
      is_public_(other.is_public_), policy_rng_(other.policy_rng_),
      queue_(std::move(other.queue_)), svt_(std::move(other.svt_)) {
  if (svt_ != nullptr) svt_->Rebind(&policy_rng_);
}

OwnerUploader& OwnerUploader::operator=(OwnerUploader&& other) noexcept {
  config_ = other.config_;
  fixed_rows_ = other.fixed_rows_;
  is_public_ = other.is_public_;
  policy_rng_ = other.policy_rng_;
  queue_ = std::move(other.queue_);
  svt_ = std::move(other.svt_);
  if (svt_ != nullptr) svt_->Rebind(&policy_rng_);
  return *this;
}

double OwnerUploader::PolicyEpsilon() const {
  return UploadPolicyEpsilon(config_);
}

SharedRows OwnerUploader::Emit(size_t take, size_t rows, Rng* share_rng) {
  take = std::min(take, queue_.size());
  rows = std::max(rows, take);
  SharedRows batch(kSrcWidth);
  for (size_t i = 0; i < take; ++i) {
    batch.AppendSecretRow(EncodeSourceRow(queue_[i]), share_rng);
  }
  queue_.erase(queue_.begin(), queue_.begin() + take);
  while (batch.size() < rows) {
    batch.AppendSecretRow(MakeDummySourceRow(share_rng), share_rng);
  }
  return batch;
}

SharedRows OwnerUploader::BuildBatch(
    uint64_t t, const std::vector<LogicalRecord>& arrivals, Rng* share_rng) {
  queue_.insert(queue_.end(), arrivals.begin(), arrivals.end());

  if (is_public_) {
    // Public relations leak nothing private: ship everything, unpadded.
    return Emit(queue_.size(), queue_.size(), share_rng);
  }

  switch (config_.kind) {
    case UploadPolicyKind::kFixedSize:
      return Emit(fixed_rows_, fixed_rows_, share_rng);

    case UploadPolicyKind::kDpTimerSync: {
      if (config_.sync_interval == 0 || t % config_.sync_interval != 0) {
        return SharedRows(kSrcWidth);  // no upload this step
      }
      // DP-Sync timer: release |pending| + Lap(1/eps1); upload that many
      // rows (real first, dummy-padded), deferring any surplus records.
      const uint32_t size = NoisyNonNegativeCount(
          static_cast<uint32_t>(queue_.size()),
          1.0 / config_.eps_sync, &policy_rng_);
      return Emit(size, size, share_rng);
    }

    case UploadPolicyKind::kDpAntSync: {
      double release = 0;
      if (!svt_->Observe(static_cast<double>(queue_.size()), &release)) {
        return SharedRows(kSrcWidth);
      }
      const uint32_t size = ClampRoundNonNegative(release);
      return Emit(size, size, share_rng);
    }
  }
  return SharedRows(kSrcWidth);
}

template <class A>
void Visit(A& a, FieldRef<A, OwnerUploader> uploader) {
  Visit(a, uploader.policy_rng_);
  VisitList(a, uploader.queue_, [&](auto& rec) { Visit(a, rec); });
  const bool want_svt = uploader.svt_ != nullptr;
  bool has_svt = want_svt;
  const uint8_t flag = a.U8(has_svt);
  NumericAboveNoisyThreshold::State svt;
  if (want_svt) svt = uploader.svt_->ExportState();
  if (has_svt) {
    a.U64(svt.noisy_threshold_bits);
    a.U64(svt.releases);
  }
  a.Expect("owner uploader state");
  a.Check(flag <= 1 && has_svt == want_svt,
          "snapshot upload-policy shape disagrees with this uploader's "
          "config");
  if constexpr (A::kRestoring) {
    if (want_svt) uploader.svt_->RestoreState(svt);
  }
}

template void Visit(CheckpointWriter&, const OwnerUploader&);
template void Visit(CheckpointReader&, OwnerUploader&);

}  // namespace incshrink
