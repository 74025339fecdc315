#include "src/core/config.h"

#include "src/common/bytes.h"

namespace incshrink {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kDpTimer:
      return "DP-Timer";
    case Strategy::kDpAnt:
      return "DP-ANT";
    case Strategy::kEp:
      return "EP";
    case Strategy::kOtm:
      return "OTM";
    case Strategy::kNm:
      return "NM";
  }
  return "Unknown";
}

Status IncShrinkConfig::Validate() const {
  if (eps <= 0) return Status::InvalidArgument("eps must be positive");
  if (omega == 0) return Status::InvalidArgument("omega must be positive");
  if (budget_b < omega)
    return Status::InvalidArgument("budget b must be >= omega");
  if (view_kind == ViewKind::kWindowJoin && join.omega != omega)
    return Status::InvalidArgument("join.omega must equal omega");
  if (view_kind == ViewKind::kFilter && filter.lo > filter.hi)
    return Status::InvalidArgument("filter range is empty");
  if (strategy == Strategy::kDpTimer && timer_T == 0)
    return Status::InvalidArgument("timer T must be positive");
  if (strategy == Strategy::kDpAnt && ant_theta <= 0)
    return Status::InvalidArgument("ANT threshold must be positive");
  if (upload_rows_t1 == 0 || upload_rows_t2 == 0)
    return Status::InvalidArgument("upload batch sizes must be positive");
  if (num_cache_shards == 0)
    return Status::InvalidArgument("num_cache_shards must be >= 1");
  if (num_cache_shards > 256)
    return Status::InvalidArgument("num_cache_shards above 256 is surely "
                                   "a configuration error");
  if (cache_shard_threads < 0)
    return Status::InvalidArgument("cache_shard_threads must be >= 0");
  if (sla_weight == 0)
    return Status::InvalidArgument("sla_weight must be >= 1");
  if (sla_weight > (1u << 20))
    return Status::InvalidArgument(
        "sla_weight above 2^20 would overflow the scheduler's exact "
        "64-bit priority arithmetic");
  if (oblivious_batch_min_layer == 0)
    return Status::InvalidArgument(
        "oblivious_batch_min_layer must be >= 1 (1 = always pool-split)");
  if (sort_algorithm != SortAlgorithm::kBatcher &&
      sort_algorithm != SortAlgorithm::kShuffleSort)
    return Status::InvalidArgument(
        "sort_algorithm must be batcher or shuffle_sort");
  for (const UploadPolicyConfig* policy :
       {&upload_policy1, &upload_policy2}) {
    if (policy->kind != UploadPolicyKind::kFixedSize &&
        policy->eps_sync <= 0) {
      return Status::InvalidArgument("DP upload policy needs eps_sync > 0");
    }
    if (policy->kind == UploadPolicyKind::kDpTimerSync &&
        policy->sync_interval == 0) {
      return Status::InvalidArgument("sync_interval must be positive");
    }
    if (policy->kind == UploadPolicyKind::kDpAntSync &&
        policy->sync_theta < 0) {
      return Status::InvalidArgument("sync_theta must be non-negative");
    }
  }
  if (max_batches_per_step == 0)
    return Status::InvalidArgument("max_batches_per_step must be >= 1");
  if (upload_channel_capacity == 0)
    return Status::InvalidArgument("upload_channel_capacity must be >= 1");
  if (checkpoint_max_bytes < 4096)
    return Status::InvalidArgument(
        "checkpoint_max_bytes below 4096 cannot hold even an empty "
        "snapshot's header, section framing and checksum");
  return Status::OK();
}

uint64_t ConfigFingerprint(const IncShrinkConfig& config) {
  ByteWriter fields;
  // Every field a running engine's behavior depends on, in declaration
  // order. Deliberately excluded: cache_shard_threads and
  // oblivious_batch_min_layer (scheduling only — results are bit-identical
  // at any value, and a tenant must be able to migrate to a process with a
  // different worker budget), and the checkpoint knobs themselves (a
  // snapshot from an auto-checkpointing run restores fine into an engine
  // that checkpoints on demand only).
  fields.F64(config.eps);
  fields.U64(config.omega);
  fields.U64(config.budget_b);
  fields.U64(static_cast<uint64_t>(config.view_kind));
  fields.U64(config.join.window_lo);
  fields.U64(config.join.window_hi);
  fields.U8(config.join.use_window ? 1 : 0);
  fields.U64(config.join.omega);
  fields.U64(config.filter.lo);
  fields.U64(config.filter.hi);
  fields.U64(config.window_steps);
  fields.U64(static_cast<uint64_t>(config.op));
  fields.U8(config.t2_is_public ? 1 : 0);
  fields.U64(static_cast<uint64_t>(config.strategy));
  fields.U64(config.timer_T);
  fields.F64(config.ant_theta);
  fields.U64(config.flush_interval);
  fields.U64(config.flush_size);
  fields.U64(config.num_cache_shards);
  fields.U64(config.sla_weight);
  fields.U64(static_cast<uint64_t>(config.sort_algorithm));
  fields.U64(config.upload_rows_t1);
  fields.U64(config.upload_rows_t2);
  for (const UploadPolicyConfig* policy :
       {&config.upload_policy1, &config.upload_policy2}) {
    fields.U64(static_cast<uint64_t>(policy->kind));
    fields.F64(policy->eps_sync);
    fields.U64(policy->sync_interval);
    fields.F64(policy->sync_theta);
  }
  fields.U64(config.max_batches_per_step);
  fields.U64(config.upload_channel_capacity);
  fields.U8(config.compact_transform_output ? 1 : 0);
  fields.F64(config.cost_model.seconds_per_and_gate);
  fields.F64(config.cost_model.seconds_per_byte);
  fields.F64(config.cost_model.seconds_per_round);
  fields.F64(config.cost_model.bytes_per_and_gate);
  fields.U64(config.seed);
  return Fnv1a64(fields.data(), fields.size());
}

}  // namespace incshrink
