#include "src/testing/fault_injector.h"

#include "src/common/logging.h"

namespace incshrink {

uint64_t FaultInjector::PickStep(uint64_t horizon) {
  INCSHRINK_CHECK_GE(horizon, 1u);
  return 1 + rng_.Uniform(horizon);
}

std::vector<uint8_t> FaultInjector::TruncateAt(
    const std::vector<uint8_t>& blob, size_t len) {
  INCSHRINK_CHECK(len < blob.size());
  return {blob.begin(), blob.begin() + static_cast<ptrdiff_t>(len)};
}

std::vector<uint8_t> FaultInjector::TornWrite(
    const std::vector<uint8_t>& blob) {
  INCSHRINK_CHECK(!blob.empty());
  return TruncateAt(blob, rng_.Uniform(blob.size()));
}

std::vector<uint8_t> FaultInjector::FlipBit(const std::vector<uint8_t>& blob,
                                            uint64_t bit_index) {
  INCSHRINK_CHECK(bit_index < blob.size() * 8);
  std::vector<uint8_t> out = blob;
  out[bit_index / 8] ^= static_cast<uint8_t>(1u << (bit_index % 8));
  return out;
}

FaultPlan FaultInjector::MakePlan(uint64_t horizon, size_t kills,
                                  size_t corruptions, uint64_t snapshot_bytes,
                                  size_t drops, uint64_t max_drop_rounds) {
  FaultPlan plan;
  plan.seed = seed_;
  for (size_t i = 0; i < kills; ++i) {
    plan.events.push_back(
        {FaultKind::kKillAtStep, PickStep(horizon), /*param=*/0});
  }
  for (size_t i = 0; i < corruptions; ++i) {
    // Alternate deterministically between tears and flips so every plan
    // exercises both corruption classes.
    if (i % 2 == 0) {
      plan.events.push_back({FaultKind::kTornWrite, /*step=*/0,
                             rng_.Uniform(snapshot_bytes)});
    } else {
      plan.events.push_back({FaultKind::kBitFlip, /*step=*/0,
                             rng_.Uniform(snapshot_bytes * 8)});
    }
  }
  for (size_t i = 0; i < drops; ++i) {
    plan.events.push_back({FaultKind::kSocketDrop, /*step=*/0,
                           1 + rng_.Uniform(max_drop_rounds)});
  }
  return plan;
}

Result<std::unique_ptr<SynchronousDeployment>> RunWithCrashAtStep(
    const IncShrinkConfig& config,
    const std::vector<std::vector<LogicalRecord>>& arrivals1,
    const std::vector<std::vector<LogicalRecord>>& arrivals2,
    uint64_t kill_step) {
  INCSHRINK_CHECK_EQ(arrivals1.size(), arrivals2.size());
  INCSHRINK_CHECK(kill_step >= 1 && kill_step <= arrivals1.size());

  // Phase 1: the doomed process. Only `snapshot` survives past the kill.
  std::vector<uint8_t> snapshot;
  {
    SynchronousDeployment doomed(config);
    for (uint64_t t = 0; t < kill_step; ++t) {
      INCSHRINK_RETURN_NOT_OK(doomed.Step(arrivals1[t], arrivals2[t]));
    }
    INCSHRINK_ASSIGN_OR_RETURN(snapshot, doomed.SaveCheckpoint());
  }  // crash: the deployment and all its in-memory state die here

  // Phase 2: the restarted process — a cold deployment restored from the
  // snapshot, finishing the stream.
  auto restored = std::make_unique<SynchronousDeployment>(config);
  INCSHRINK_RETURN_NOT_OK(restored->RestoreCheckpoint(snapshot));
  for (uint64_t t = kill_step; t < arrivals1.size(); ++t) {
    INCSHRINK_RETURN_NOT_OK(restored->Step(arrivals1[t], arrivals2[t]));
  }
  return restored;
}

}  // namespace incshrink
