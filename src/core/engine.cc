#include "src/core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/join.h"
#include "src/oblivious/shuffle.h"
#include "src/relational/encode.h"
#include "src/storage/checkpoint.h"
#include "src/storage/serialization.h"

namespace incshrink {

namespace {

IncShrinkConfig AdjustForStrategy(IncShrinkConfig config) {
  if (config.strategy == Strategy::kEp) {
    // EP's defining behaviour: materialize the exhaustively padded MPC
    // outputs verbatim (no oblivious compaction).
    config.compact_transform_output = false;
  }
  return config;
}

// ---------------------------------------------------------------------------
// ICKP snapshot layout of one engine (src/storage/checkpoint.h). Sections in
// fixed order; every variable-length list is count-prefixed and decoded under
// the reader's ok() guard, so hostile counts can never read past a section.
// ---------------------------------------------------------------------------
constexpr uint32_t kTagFingerprint = CheckpointTag('C', 'F', 'G', ' ');
constexpr uint32_t kTagClocks = CheckpointTag('C', 'L', 'K', ' ');
constexpr uint32_t kTagRandomness = CheckpointTag('R', 'N', 'G', ' ');
constexpr uint32_t kTagLedger = CheckpointTag('A', 'C', 'C', 'T');
constexpr uint32_t kTagStore1 = CheckpointTag('S', 'T', 'R', '1');
constexpr uint32_t kTagStore2 = CheckpointTag('S', 'T', 'R', '2');
constexpr uint32_t kTagCache = CheckpointTag('C', 'S', 'H', 'D');
constexpr uint32_t kTagTheta = CheckpointTag('T', 'H', 'T', 'A');
constexpr uint32_t kTagView = CheckpointTag('V', 'I', 'E', 'W');
constexpr uint32_t kTagTruth = CheckpointTag('T', 'R', 'U', 'T');
constexpr uint32_t kTagLogs = CheckpointTag('L', 'O', 'G', 'S');
constexpr uint32_t kTagChannel1 = CheckpointTag('C', 'H', 'N', '1');
constexpr uint32_t kTagChannel2 = CheckpointTag('C', 'H', 'N', '2');

/// Store section (ICKP v2): first retained step, lifetime row total, then
/// the count-prefixed held batches [first_retained, steps).
void SaveStore(CheckpointWriter* w, uint32_t tag,
               const OutsourcedTable& store) {
  w->BeginSection(tag);
  w->U64(store.first_retained());
  w->U64(store.total_rows());
  w->U64(store.steps() - store.first_retained());
  for (uint64_t s = store.first_retained(); s < store.steps(); ++s) {
    w->WriteSharedRows(store.batch(s));
  }
  w->EndSection();
}

/// A decoded store section, committed by OutsourcedTable::Restore.
struct StoreSnapshot {
  uint64_t first_retained = 0;
  uint64_t total_rows = 0;
  std::vector<SharedRows> batches;
};

/// Decodes a store section whose restored clock implies `steps` lifetime
/// upload steps and the retention floor `floor`; any other first retained
/// step or batch count is rejected before a batch is read.
Status LoadStore(CheckpointReader* r, uint32_t tag, uint64_t steps,
                 uint64_t floor, StoreSnapshot* out) {
  r->BeginSection(tag);
  out->first_retained = r->U64();
  out->total_rows = r->U64();
  const uint64_t count = r->U64();
  INCSHRINK_RETURN_NOT_OK(r->ExpectOk("outsourced store header"));
  if (out->first_retained != floor) {
    return Status::InvalidArgument(
        "snapshot store's first retained step is not its clock's floor");
  }
  if (count != steps - floor) {
    return Status::InvalidArgument(
        "snapshot store holds the wrong number of batches");
  }
  for (uint64_t s = 0; s < count && r->ok(); ++s) {
    INCSHRINK_ASSIGN_OR_RETURN(SharedRows batch, r->ReadSharedRows());
    if (batch.width() != kSrcWidth) {
      return Status::InvalidArgument(
          "snapshot store batch has the wrong row width");
    }
    out->batches.push_back(std::move(batch));
  }
  r->EndSection();
  return r->ExpectOk("outsourced store");
}

/// True when a decoded store agrees with its per-step upload-size log: the
/// lifetime total is the log's sum and each held batch has its logged size.
bool StoreMatchesLog(const StoreSnapshot& store,
                     const std::vector<uint64_t>& log) {
  uint64_t total = 0;
  for (const uint64_t rows : log) {
    if (rows > std::numeric_limits<uint64_t>::max() - total) return false;
    total += rows;
  }
  if (total != store.total_rows ||
      store.first_retained + store.batches.size() > log.size()) {
    return false;
  }
  for (size_t i = 0; i < store.batches.size(); ++i) {
    if (store.batches[i].size() != log[store.first_retained + i]) {
      return false;
    }
  }
  return true;
}

void SaveChannel(CheckpointWriter* w, uint32_t tag, const UploadChannel& ch) {
  w->BeginSection(tag);
  const std::vector<std::vector<uint8_t>> frames = ch.PendingFrames();
  w->U64(frames.size());
  for (const std::vector<uint8_t>& frame : frames) w->Bytes(frame);
  w->U64(ch.frames_pushed());
  w->U64(ch.frames_popped());
  w->U64(ch.push_rejects());
  w->U64(ch.bytes_pushed());
  w->U64(ch.max_depth());
  w->EndSection();
}

/// Decodes a channel section into a scratch channel of this deployment's
/// capacity; the scratch commits by move-assignment only after every other
/// snapshot section has validated.
Status LoadChannel(CheckpointReader* r, uint32_t tag, UploadChannel* scratch) {
  r->BeginSection(tag);
  const uint64_t count = r->U64();
  std::vector<std::vector<uint8_t>> frames;
  for (uint64_t i = 0; i < count && r->ok(); ++i) {
    frames.push_back(r->Bytes());
  }
  UploadChannel::CounterState counters;
  counters.frames_pushed = r->U64();
  counters.frames_popped = r->U64();
  counters.push_rejects = r->U64();
  counters.bytes_pushed = r->U64();
  counters.max_depth = r->U64();
  r->EndSection();
  INCSHRINK_RETURN_NOT_OK(r->ExpectOk("upload channel backlog"));
  return scratch->Restore(std::move(frames), counters);
}

void SaveMetrics(CheckpointWriter* w, const StepMetrics& m) {
  w->U64(m.t);
  w->F64(m.transform_seconds);
  w->F64(m.shrink_seconds);
  w->F64(m.query_seconds);
  w->U64(m.true_count);
  w->U64(m.view_answer);
  w->F64(m.l1_error);
  w->F64(m.relative_error);
  w->U64(m.view_rows);
  w->U64(m.cache_rows);
  w->U8(m.synced ? 1 : 0);
  w->U64(m.sync_rows);
  w->U8(m.flushed ? 1 : 0);
}

/// False on a non-canonical bool byte (hostile snapshot); reader ok-flag
/// failures surface through the caller's ExpectOk.
bool LoadMetrics(CheckpointReader* r, StepMetrics* m) {
  m->t = r->U64();
  m->transform_seconds = r->F64();
  m->shrink_seconds = r->F64();
  m->query_seconds = r->F64();
  m->true_count = r->U64();
  m->view_answer = r->U64();
  m->l1_error = r->F64();
  m->relative_error = r->F64();
  m->view_rows = r->U64();
  m->cache_rows = r->U64();
  const uint8_t synced = r->U8();
  m->sync_rows = r->U64();
  const uint8_t flushed = r->U8();
  if (synced > 1 || flushed > 1) return false;
  m->synced = synced == 1;
  m->flushed = flushed == 1;
  return true;
}

}  // namespace

Engine::Engine(const IncShrinkConfig& config)
    : config_(AdjustForStrategy(config)),
      channel1_(config.upload_channel_capacity),
      channel2_(config.upload_channel_capacity),
      s0_(0, config.seed * 0x9E3779B97F4A7C15ull + 1),
      s1_(1, config.seed * 0xC2B2AE3D27D4EB4Full + 2),
      proto_(&s0_, &s1_, config.cost_model),
      accountant_(config.eps, config.budget_b, config.omega),
      store1_(kSrcWidth),
      store2_(kSrcWidth),
      cache_(&proto_, config_.num_cache_shards, config_.eps,
             static_cast<double>(config_.budget_b), config_.seed,
             config_.cost_model),
      transform_(&proto_, config_, &accountant_),
      truth_(WindowJoinQuery{config.join.window_lo, config.join.window_hi,
                             config.join.use_window}) {
  INCSHRINK_CHECK(config.Validate().ok());
  // One Shrink instance per shard, each constructed on its shard's protocol
  // with its eps slice. For K == 1 the single instance lives on the
  // engine's own protocol with the full eps — exactly the pre-sharding
  // construction, bit for bit.
  const std::vector<double>& slices = cache_.shard_eps();
  shard_configs_.reserve(slices.size());
  for (const double slice : slices) {
    IncShrinkConfig shard_cfg = config_;
    shard_cfg.eps = slice;
    shard_configs_.push_back(shard_cfg);
  }
  if (config.strategy == Strategy::kDpTimer) {
    for (size_t k = 0; k < shard_configs_.size(); ++k) {
      timers_.push_back(std::make_unique<ShrinkTimer>(cache_.shard_proto(k),
                                                      shard_configs_[k]));
    }
  } else if (config.strategy == Strategy::kDpAnt) {
    for (size_t k = 0; k < shard_configs_.size(); ++k) {
      ants_.push_back(std::make_unique<ShrinkAnt>(cache_.shard_proto(k),
                                                  shard_configs_[k]));
    }
  }
  // Only the DP strategies fork-join over shards; EP/OTM materialize
  // serially and NM never touches the cache, so don't park idle workers.
  if (cache_.num_shards() > 1 && (!timers_.empty() || !ants_.empty())) {
    shard_pool_ = std::make_unique<ThreadPool>(static_cast<int>(
        std::min<size_t>(static_cast<size_t>(ResolveThreadCount(
                             config_.cache_shard_threads)),
                         cache_.num_shards())));
  }
  // The transform's join/compaction sorts share the deployment's batch
  // execution policy (and pool) with the Shrink-phase cache sorts.
  transform_.set_sort_exec(batch_exec());
}

uint64_t Engine::MaterializeAll() {
  uint64_t total = 0;
  for (size_t k = 0; k < cache_.num_shards(); ++k) {
    SecureCache& shard = cache_.shard(k);
    const uint64_t rows = shard.rows()->size();
    proto_.AccountBytes(rows * kViewWidth * sizeof(Word) * 2);
    view_.Append(*shard.rows());
    shard.rows()->Clear();
    // On the shard's own protocol: every write to a shard counter must draw
    // its share randomness from the shard's derived substream (== &proto_
    // for the single shard of an unsharded deployment).
    shard.ResetCounter(cache_.shard_proto(k));
    total += rows;
  }
  return total;
}

uint64_t Engine::AnswerQuery(double* seconds) {
  const CircuitStats before = proto_.Snapshot();
  uint64_t answer = 0;
  if (config_.strategy == Strategy::kNm) {
    // Standard SOGDB: re-evaluate the query over the entire outsourced data.
    const SharedRows all1 = store1_.ConcatAll();
    if (config_.view_kind == ViewKind::kFilter) {
      const WordShares count = ObliviousCountWhere(
          &proto_, all1, kSrcValidCol,
          ObliviousPredicate::ColumnBetween(kSrcPayloadCol, config_.filter.lo,
                                            config_.filter.hi));
      answer = proto_.Reveal(count);
    } else {
      const SharedRows all2 = store2_.ConcatAll();
      answer = ObliviousJoinCountFull(&proto_, all1, all2, config_.join);
      proto_.AccountBytes(sizeof(Word) * 2);  // reveal the count
      proto_.AccountRounds(1);
    }
  } else {
    const WordShares count = ObliviousCountWhere(
        &proto_, view_.rows(), kViewIsViewCol, ObliviousPredicate::True());
    answer = proto_.Reveal(count);
  }
  *seconds = proto_.SimulatedSecondsSince(before);
  return answer;
}

void Engine::ForEachShard(const std::function<void(size_t)>& body) {
  const size_t num = cache_.num_shards();
  if (shard_pool_ != nullptr) {
    shard_pool_->ParallelFor(num, body);
  } else {
    for (size_t k = 0; k < num; ++k) body(k);
  }
}

Status Engine::Step() {
  INCSHRINK_RETURN_NOT_OK(BeginStep());
  return FinishStep();
}

Status Engine::BeginStep() {
  INCSHRINK_CHECK(pending_ == nullptr);
  pending_ = std::make_unique<PendingStep>();
  const Status st = BeginStepImpl();
  // A rejected step (malformed peer frame) must leave the engine steppable:
  // drop the half-built step state so the next Begin/Step starts clean.
  if (!st.ok()) pending_.reset();
  // Transform is the last reader of the stores in a step (only NM's query
  // reads them later, and its floor is 0), so evict every batch no future
  // invocation can read. Runs on every outcome, so between steps each store
  // always holds exactly [RetainFrom(t_), t_).
  const uint64_t floor = TransformProtocol::RetainFrom(config_, t_);
  store1_.EvictBefore(floor);
  if (config_.view_kind != ViewKind::kFilter) store2_.EvictBefore(floor);
  return st;
}

Status Engine::BeginStepImpl() {
  PendingStep& p = *pending_;

  // Drain queued owner frames: at most max_batches_per_step per channel, in
  // fixed owner order (a T1 frame, then its paired T2 frame — join views
  // drain the channels as pairs so the ground-truth counter sees aligned
  // streams). Drained frames merge into one upload batch per relation, so
  // Transform still sees exactly one batch per engine step; the drain count
  // is a pure function of the queue depths and the config bound.
  const bool join_view = config_.view_kind != ViewKind::kFilter;
  size_t drain = std::min<size_t>(config_.max_batches_per_step,
                                  channel1_.depth());
  if (join_view) drain = std::min(drain, channel2_.depth());

  // Validate before commit: every frame the step will drain is decoded and
  // checked while still queued. A malformed peer must surface as a Status,
  // never abort the server, and a rejected step must leave the engine
  // exactly as it was (clock, ground truth, channels), so every later Step
  // returns the same Status instead of tripping Transform's store CHECKs.
  auto decode = [](const std::vector<uint8_t>& raw) -> Result<UploadFrame> {
    INCSHRINK_ASSIGN_OR_RETURN(UploadFrame f, DecodeUploadFrame(raw));
    // Validate the decoded width before AppendAll's internal CHECK sees it.
    if (f.batch.width() != kSrcWidth) {
      return Status::InvalidArgument("upload frame has wrong row width");
    }
    return f;
  };
  std::vector<UploadFrame> frames1;
  std::vector<UploadFrame> frames2;
  frames1.reserve(drain);
  if (join_view) frames2.reserve(drain);
  for (size_t i = 0; i < drain; ++i) {
    INCSHRINK_ASSIGN_OR_RETURN(UploadFrame f1, decode(channel1_.Peek(i)));
    if (join_view) {
      INCSHRINK_ASSIGN_OR_RETURN(UploadFrame f2, decode(channel2_.Peek(i)));
      // A hostile or buggy peer can desynchronize the two owner streams;
      // the transport's per-connection sequence stamps catch most of this
      // earlier, but the engine is the last line of defense.
      if (f1.owner_step != f2.owner_step) {
        return Status::InvalidArgument(
            "paired upload frames disagree on owner step");
      }
      frames2.push_back(std::move(f2));
    }
    frames1.push_back(std::move(f1));
  }

  // Commit: pop the validated frames, replay ground truth and merge.
  ++t_;
  StepMetrics& m = p.m;
  m.t = t_;
  SharedRows merged1(kSrcWidth);
  SharedRows merged2(kSrcWidth);
  std::vector<uint8_t> popped;
  for (size_t i = 0; i < drain; ++i) {
    INCSHRINK_CHECK(channel1_.TryPop(&popped));
    // Ground truth over the logical growing database, replayed from the
    // frames' evaluation-only arrival sections in owner-step order. Under
    // an owner lead the truth counter advances only as frames are drained:
    // the engine's notion of q_t(D_t) is the synchronized prefix.
    if (join_view) {
      INCSHRINK_CHECK(channel2_.TryPop(&popped));
      truth_.Step(frames1[i].arrivals, frames2[i].arrivals);
      merged2.AppendAll(frames2[i].batch);
      ++frames_drained_;
    } else {
      for (const LogicalRecord& rec : frames1[i].arrivals) {
        if (rec.payload >= config_.filter.lo &&
            rec.payload <= config_.filter.hi)
          ++filter_truth_;
      }
    }
    merged1.AppendAll(frames1[i].batch);
    ++frames_drained_;
  }
  m.true_count = join_view ? truth_.count() : filter_truth_;

  const uint64_t up1 = merged1.size();
  proto_.AccountBytes(up1 * kSrcWidth * sizeof(Word) * 2);
  store1_.AppendBatch(std::move(merged1));
  uint64_t up2 = 0;
  if (join_view) {
    up2 = merged2.size();
    proto_.AccountBytes(up2 * kSrcWidth * sizeof(Word) * 2);
    store2_.AppendBatch(std::move(merged2));
  }
  upload_rows_t1_log_.push_back(up1);
  upload_rows_t2_log_.push_back(up2);
  transcript_.push_back({TranscriptEvent::Kind::kUpload, t_, up1 + up2});

  // View maintenance.
  const bool transforms = config_.strategy == Strategy::kDpTimer ||
                          config_.strategy == Strategy::kDpAnt ||
                          config_.strategy == Strategy::kEp ||
                          (config_.strategy == Strategy::kOtm && t_ == 1);
  if (transforms) {
    INCSHRINK_ASSIGN_OR_RETURN(
        const TransformProtocol::StepResult tr,
        transform_.Step(t_, store1_, store2_, &cache_));
    m.transform_seconds = tr.simulated_seconds;
    real_entries_per_step_.push_back(tr.real_entries);
    total_real_entries_ += tr.real_entries;
    transcript_.push_back(
        {TranscriptEvent::Kind::kTransformOut, t_, tr.appended_rows});
  } else {
    real_entries_per_step_.push_back(0);
  }

  p.release = LeakageRelease{t_, 0, false};
  switch (config_.strategy) {
    case Strategy::kDpTimer:
    case Strategy::kDpAnt: {
      // Per-shard Shrink plans. Every shard plans on its own protocol
      // instance, so the K tasks share no mutable state; with K > 1 they
      // run concurrently on the shard pool. The fired shards' cache sorts
      // become one fused batch submission (executed by FinishStep, or by
      // the fleet when it coalesces sorts across tenants).
      p.dp = true;
      const size_t num = cache_.num_shards();
      p.plans.resize(num);
      p.staged_sync.resize(num);
      ForEachShard([&](size_t k) {
        SecureCache* shard = &cache_.shard(k);
        p.plans[k] = !timers_.empty() ? timers_[k]->Plan(t_, shard)
                                      : ants_[k]->Plan(t_, shard);
      });
      for (size_t k = 0; k < num; ++k) {
        if (p.plans[k].fired) {
          p.jobs.push_back(SortJob{cache_.shard_proto(k),
                                   cache_.shard(k).rows(), kViewSortKeyCol,
                                   0, /*lex=*/false, /*ascending=*/false,
                                   config_.sort_algorithm});
        }
      }
      break;
    }
    case Strategy::kEp:
    case Strategy::kOtm: {
      if (transforms) {
        const CircuitStats before = proto_.Snapshot();
        const uint64_t rows = MaterializeAll();
        m.synced = true;
        m.sync_rows = rows;
        m.shrink_seconds += proto_.SimulatedSecondsSince(before);
        transcript_.push_back({TranscriptEvent::Kind::kSync, t_, rows});
      }
      break;
    }
    case Strategy::kNm:
      break;
  }
  return Status::OK();
}

std::vector<SortJob> Engine::TakePendingSortJobs() {
  INCSHRINK_CHECK(pending_ != nullptr);
  pending_->jobs_taken = true;
  return std::move(pending_->jobs);
}

Status Engine::FinishStep() {
  INCSHRINK_CHECK(pending_ != nullptr);
  PendingStep& p = *pending_;
  StepMetrics& m = p.m;

  if (p.dp) {
    const size_t num = cache_.num_shards();
    // Fused sync sorts of the fired shards (unless the caller already
    // executed the jobs it took): one cross-shard batch submission whose
    // layer rounds pool all shards' pair work on the deployment pool.
    if (!p.jobs_taken && !p.jobs.empty()) {
      ObliviousSortBatch(p.jobs.data(), p.jobs.size(), batch_exec());
    }
    std::vector<ShrinkResult> syncs(num);
    ForEachShard([&](size_t k) {
      if (!p.plans[k].fired) {
        syncs[k] = p.plans[k].early;
        return;
      }
      SecureCache* shard = &cache_.shard(k);
      syncs[k] = !timers_.empty()
                     ? timers_[k]->Commit(p.plans[k], shard,
                                          &p.staged_sync[k])
                     : ants_[k]->Commit(p.plans[k], shard,
                                        &p.staged_sync[k]);
    });

    // Flush phase: public schedule, so one fused submission sorts every
    // shard's remaining cache, then the fixed-prefix commits run per shard.
    std::vector<ShrinkResult> flushes(num);
    std::vector<MaterializedView> staged_flush(num);
    if (FlushDue(config_, t_)) {
      std::vector<CircuitStats> before(num);
      for (size_t k = 0; k < num; ++k) {
        before[k] = cache_.shard_proto(k)->Snapshot();
      }
      if (config_.sort_algorithm == SortAlgorithm::kShuffleSort) {
        // Shuffle tier: flushes recycle the suffix anyway, so a fused
        // random Waksman permute replaces the cross-shard flush sort.
        std::vector<PermuteJob> permute_jobs;
        permute_jobs.reserve(num);
        for (size_t k = 0; k < num; ++k) {
          permute_jobs.push_back(
              PermuteJob{cache_.shard_proto(k), cache_.shard(k).rows()});
        }
        ObliviousRandomPermuteBatch(permute_jobs.data(), permute_jobs.size(),
                                    batch_exec());
      } else {
        std::vector<SortJob> flush_jobs;
        flush_jobs.reserve(num);
        for (size_t k = 0; k < num; ++k) {
          flush_jobs.push_back(
              SortJob{cache_.shard_proto(k), cache_.shard(k).rows(),
                      kViewSortKeyCol, 0, /*lex=*/false, /*ascending=*/false});
        }
        ObliviousSortBatch(flush_jobs.data(), flush_jobs.size(),
                           batch_exec());
      }
      ForEachShard([&](size_t k) {
        flushes[k] = CommitFlush(cache_.shard_proto(k), shard_configs_[k],
                                 &cache_.shard(k), &staged_flush[k],
                                 before[k]);
      });
    }

    // Fixed shard-order merge — the exact pre-fusion loop, so the view
    // contents, transcript and metrics are bit-identical at any worker
    // count (and, for K == 1, identical to the unsharded engine).
    for (size_t k = 0; k < num; ++k) {
      m.shrink_seconds += syncs[k].simulated_seconds;
      if (syncs[k].fired) {
        m.synced = true;
        m.sync_rows += syncs[k].sync_rows;
        p.release.size += syncs[k].released_size;
        p.release.fired = true;
        view_.Append(p.staged_sync[k].rows());
        transcript_.push_back(
            {TranscriptEvent::Kind::kSync, t_, syncs[k].sync_rows});
      }
      if (flushes[k].fired) {
        m.flushed = true;
        m.shrink_seconds += flushes[k].simulated_seconds;
        view_.Append(staged_flush[k].rows());
        transcript_.push_back(
            {TranscriptEvent::Kind::kFlush, t_, flushes[k].sync_rows});
      }
    }
  }
  releases_.push_back(p.release);

  // Analyst query.
  m.view_answer = AnswerQuery(&m.query_seconds);
  m.l1_error = std::abs(static_cast<double>(m.view_answer) -
                        static_cast<double>(m.true_count));
  m.relative_error =
      m.l1_error / std::max<double>(1.0, static_cast<double>(m.true_count));
  m.view_rows = view_.size();
  m.cache_rows = cache_.size();
  metrics_.push_back(m);
  pending_.reset();

  // Automatic checkpoint slot. Snapshotting draws no randomness, so the run
  // stays bit-identical to an uncheckpointed one at any cadence.
  if (config_.checkpoint_interval > 0 &&
      t_ % config_.checkpoint_interval == 0) {
    Result<std::vector<uint8_t>> snapshot = SaveCheckpoint();
    if (!snapshot.ok()) return snapshot.status();
    last_checkpoint_ = std::move(snapshot).value();
    last_checkpoint_step_ = t_;
    ++checkpoints_taken_;
  }
  return Status::OK();
}

uint64_t Engine::StepsToNextPublicRelease() const {
  // The next step is t_ + 1; a cadence of period P fires at steps divisible
  // by P, so the distance is P - (t_ mod P), in [1, P].
  uint64_t dist = std::numeric_limits<uint64_t>::max();
  const bool dp = config_.strategy == Strategy::kDpTimer ||
                  config_.strategy == Strategy::kDpAnt;
  if (config_.strategy == Strategy::kDpTimer && config_.timer_T > 0) {
    dist = std::min<uint64_t>(dist, config_.timer_T - (t_ % config_.timer_T));
  }
  if (dp && config_.flush_interval > 0) {
    dist = std::min<uint64_t>(
        dist, config_.flush_interval - (t_ % config_.flush_interval));
  }
  return dist;
}

RunSummary Engine::Summary() const {
  RunSummary s;
  for (const StepMetrics& m : metrics_) {
    s.l1_error.Add(m.l1_error);
    s.relative_error.Add(m.relative_error);
    s.true_count_stat.Add(static_cast<double>(m.true_count));
    s.qet_seconds.Add(m.query_seconds);
    if (m.transform_seconds > 0) s.transform_seconds.Add(m.transform_seconds);
    if (m.synced) {
      s.shrink_seconds.Add(m.shrink_seconds);
      ++s.updates;
    }
    if (m.flushed) ++s.flushes;
    s.total_mpc_seconds += m.transform_seconds + m.shrink_seconds;
    s.total_query_seconds += m.query_seconds;
  }
  s.steps = metrics_.size();
  s.final_view_mb = view_.SizeMb();
  s.final_view_rows = view_.size();
  s.final_cache_rows = cache_.size();
  s.total_real_entries_cached = total_real_entries_;
  if (!metrics_.empty()) s.final_true_count = metrics_.back().true_count;
  return s;
}

SimulatorPublicParams Engine::MakeSimulatorParams() const {
  SimulatorPublicParams pp;
  const std::vector<uint64_t> u1 = upload_rows_t1_log_;
  const std::vector<uint64_t> u2 = upload_rows_t2_log_;
  pp.upload_rows = [u1, u2](uint64_t t) -> uint64_t {
    if (t < 1 || t > u1.size()) return 0;
    return u1[t - 1] + u2[t - 1];
  };
  // The transform output size is a deterministic function of the public
  // upload sizes (themselves fixed constants or DP releases of the owners'
  // synchronization policies) and public protocol constants.
  const IncShrinkConfig cfg = config_;
  pp.transform_rows = [cfg, u1, u2](uint64_t t) -> uint64_t {
    if (t < 1 || t > u1.size()) return 0;
    if (cfg.view_kind == ViewKind::kFilter) return u1[t - 1];
    if (cfg.t2_is_public ||
        cfg.op == TransformOperator::kNestedLoopJoin) {
      const uint64_t wlen = std::min<uint64_t>(
          TransformProtocol::EligibleSteps(cfg), t - 1);
      uint64_t old1 = 0;
      for (uint64_t s = t - 1 - wlen; s + 1 <= t - 1; ++s) old1 += u1[s];
      return cfg.omega * (u1[t - 1] + old1);
    }
    return cfg.omega * (u1[t - 1] + u2[t - 1]);
  };
  // The Table-1 simulator models one flush of `flush_size` per interval;
  // sharded deployments flush per shard, so scale the modelled size.
  pp.flush_interval = config_.flush_interval;
  pp.flush_size =
      static_cast<uint64_t>(config_.flush_size) * cache_.num_shards();
  return pp;
}

Engine::AdHocResult Engine::AnswerAdHocQuery(const AnalystQuery& query) {
  INCSHRINK_CHECK(config_.view_kind == ViewKind::kWindowJoin);
  AdHocResult result;
  const CircuitStats before = proto_.Snapshot();
  const WordShares count =
      ObliviousCountWhere(&proto_, view_.rows(), kViewIsViewCol,
                          RewriteToViewPredicate(query));
  result.answer = proto_.Reveal(count);
  result.query_seconds = proto_.SimulatedSecondsSince(before);
  return result;
}

uint64_t Engine::AdHocTruth(const AnalystQuery& query) const {
  INCSHRINK_CHECK(config_.view_kind == ViewKind::kWindowJoin);
  return AdHocJoinTruth(truth_, query);
}

Result<std::vector<uint8_t>> Engine::SaveCheckpoint() {
  if (pending_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot checkpoint between BeginStep and FinishStep");
  }
  CheckpointWriter w;

  w.BeginSection(kTagFingerprint);
  w.U64(ConfigFingerprint(config_));
  w.EndSection();

  w.BeginSection(kTagClocks);
  w.U64(t_);
  w.U64(frames_drained_);
  w.U64(filter_truth_);
  w.U64(total_real_entries_);
  w.EndSection();

  w.BeginSection(kTagRandomness);
  w.WriteRng(s0_.rng()->ExportState());
  w.WriteRng(s1_.rng()->ExportState());
  w.WriteRng(proto_.internal_rng()->ExportState());
  w.WriteStats(proto_.Snapshot());
  w.EndSection();

  w.BeginSection(kTagLedger);
  const std::vector<PrivacyAccountant::LedgerEntry> ledger =
      accountant_.ExportLedger();
  w.U64(ledger.size());
  for (const PrivacyAccountant::LedgerEntry& e : ledger) {
    w.U32(e.rid);
    w.U32(e.charged);
    w.U32(e.contributed);
  }
  w.EndSection();

  SaveStore(&w, kTagStore1, store1_);
  SaveStore(&w, kTagStore2, store2_);

  w.BeginSection(kTagCache);
  w.U64(*cache_.seq());
  w.U64(cache_.append_cursor());
  w.U64(cache_.num_shards());
  for (size_t k = 0; k < cache_.num_shards(); ++k) {
    w.WriteSharedRows(*cache_.shard(k).rows());
    w.WriteWordShares(cache_.shard(k).counter());
    w.U64(cache_.shard(k).seq_value());
  }
  const bool derived = cache_.shard_party(0, 0) != nullptr;
  w.U8(derived ? 1 : 0);
  if (derived) {
    for (size_t k = 0; k < cache_.num_shards(); ++k) {
      w.WriteRng(cache_.shard_party(k, 0)->rng()->ExportState());
      w.WriteRng(cache_.shard_party(k, 1)->rng()->ExportState());
      w.WriteRng(cache_.shard_proto(k)->internal_rng()->ExportState());
      w.WriteStats(cache_.shard_proto(k)->Snapshot());
    }
  }
  w.EndSection();

  w.BeginSection(kTagTheta);
  w.U64(ants_.size());
  for (const std::unique_ptr<ShrinkAnt>& ant : ants_) {
    w.WriteWordShares(ant->shared_theta());
  }
  w.EndSection();

  w.BeginSection(kTagView);
  w.WriteSharedRows(view_.rows());
  w.EndSection();

  w.BeginSection(kTagTruth);
  truth_.SaveTo(&w);
  w.EndSection();

  w.BeginSection(kTagLogs);
  w.U64(metrics_.size());
  for (const StepMetrics& m : metrics_) SaveMetrics(&w, m);
  w.U64(transcript_.size());
  for (const TranscriptEvent& e : transcript_) {
    w.U8(static_cast<uint8_t>(e.kind));
    w.U64(e.t);
    w.U64(e.rows);
  }
  w.U64(releases_.size());
  for (const LeakageRelease& rel : releases_) {
    w.U64(rel.t);
    w.U32(rel.size);
    w.U8(rel.fired ? 1 : 0);
  }
  w.U64(real_entries_per_step_.size());
  for (const uint32_t v : real_entries_per_step_) w.U32(v);
  w.U64(upload_rows_t1_log_.size());
  for (const uint64_t v : upload_rows_t1_log_) w.U64(v);
  w.U64(upload_rows_t2_log_.size());
  for (const uint64_t v : upload_rows_t2_log_) w.U64(v);
  w.EndSection();

  SaveChannel(&w, kTagChannel1, channel1_);
  SaveChannel(&w, kTagChannel2, channel2_);

  std::vector<uint8_t> blob = w.Finish();
  if (blob.size() > config_.checkpoint_max_bytes) {
    return Status::OutOfRange(
        "snapshot exceeds checkpoint_max_bytes; raise the ceiling or "
        "checkpoint a smaller deployment");
  }
  return blob;
}

Status Engine::RestoreCheckpoint(const std::vector<uint8_t>& snapshot) {
  if (pending_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot restore between BeginStep and FinishStep");
  }
  INCSHRINK_ASSIGN_OR_RETURN(CheckpointReader r,
                             CheckpointReader::Open(snapshot));

  // Decode phase: everything lands in temporaries; no engine member is
  // touched until every section (and the container itself) has validated.
  r.BeginSection(kTagFingerprint);
  const uint64_t fingerprint = r.U64();
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("snapshot fingerprint"));
  if (fingerprint != ConfigFingerprint(config_)) {
    return Status::FailedPrecondition(
        "snapshot was taken under a different configuration");
  }

  r.BeginSection(kTagClocks);
  const uint64_t t = r.U64();
  const uint64_t frames_drained = r.U64();
  const uint64_t filter_truth = r.U64();
  const uint64_t total_real_entries = r.U64();
  r.EndSection();

  r.BeginSection(kTagRandomness);
  const RngState rng0 = r.ReadRng();
  const RngState rng1 = r.ReadRng();
  const RngState proto_rng = r.ReadRng();
  const CircuitStats proto_stats = r.ReadStats();
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("engine clocks and randomness"));

  r.BeginSection(kTagLedger);
  const uint64_t ledger_size = r.U64();
  std::vector<PrivacyAccountant::LedgerEntry> ledger;
  for (uint64_t i = 0; i < ledger_size && r.ok(); ++i) {
    PrivacyAccountant::LedgerEntry e;
    e.rid = r.U32();
    e.charged = r.U32();
    e.contributed = r.U32();
    ledger.push_back(e);
  }
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("privacy ledger"));

  // Every store holds exactly the batches at or above the restored clock's
  // retention floor; filter views never upload T2, so store 2 stays empty.
  const bool join_view = config_.view_kind != ViewKind::kFilter;
  const uint64_t steps2 = join_view ? t : 0;
  const uint64_t floor = TransformProtocol::RetainFrom(config_, t);
  StoreSnapshot store1;
  StoreSnapshot store2;
  INCSHRINK_RETURN_NOT_OK(LoadStore(&r, kTagStore1, t, floor, &store1));
  INCSHRINK_RETURN_NOT_OK(LoadStore(&r, kTagStore2, steps2,
                                    std::min(floor, steps2), &store2));

  r.BeginSection(kTagCache);
  const uint64_t cache_seq = r.U64();
  const uint64_t append_cursor = r.U64();
  const uint64_t num_shards = r.U64();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("sharded cache header"));
  if (num_shards != cache_.num_shards()) {
    return Status::InvalidArgument(
        "snapshot shard count disagrees with this engine's configuration");
  }
  std::vector<SharedRows> shard_rows;
  std::vector<WordShares> shard_counters;
  std::vector<uint64_t> shard_seqs;
  for (uint64_t k = 0; k < num_shards && r.ok(); ++k) {
    INCSHRINK_ASSIGN_OR_RETURN(SharedRows rows, r.ReadSharedRows());
    if (rows.width() != kViewWidth) {
      return Status::InvalidArgument(
          "snapshot cache shard has the wrong row width");
    }
    shard_rows.push_back(std::move(rows));
    shard_counters.push_back(r.ReadWordShares());
    shard_seqs.push_back(r.U64());
  }
  const uint8_t has_derived = r.U8();
  std::vector<RngState> shard_party_rngs;
  std::vector<RngState> shard_proto_rngs;
  std::vector<CircuitStats> shard_stats;
  if (has_derived == 1) {
    for (uint64_t k = 0; k < num_shards && r.ok(); ++k) {
      shard_party_rngs.push_back(r.ReadRng());
      shard_party_rngs.push_back(r.ReadRng());
      shard_proto_rngs.push_back(r.ReadRng());
      shard_stats.push_back(r.ReadStats());
    }
  }
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("sharded cache"));
  if (has_derived > 1 ||
      (has_derived == 1) != (cache_.shard_party(0, 0) != nullptr)) {
    return Status::InvalidArgument(
        "snapshot cache shape disagrees with this engine's sharding");
  }

  r.BeginSection(kTagTheta);
  const uint64_t theta_count = r.U64();
  std::vector<WordShares> thetas;
  for (uint64_t k = 0; k < theta_count && r.ok(); ++k) {
    thetas.push_back(r.ReadWordShares());
  }
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("ANT thresholds"));
  if (theta_count != ants_.size()) {
    return Status::InvalidArgument(
        "snapshot strategy state disagrees with this engine's strategy");
  }

  r.BeginSection(kTagView);
  INCSHRINK_ASSIGN_OR_RETURN(SharedRows view_rows, r.ReadSharedRows());
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("materialized view"));
  if (view_rows.width() != kViewWidth) {
    return Status::InvalidArgument(
        "snapshot view has the wrong row width");
  }

  WindowJoinCounter truth(truth_.query());
  r.BeginSection(kTagTruth);
  INCSHRINK_RETURN_NOT_OK(truth.RestoreFrom(&r));
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("ground-truth counter"));

  r.BeginSection(kTagLogs);
  const uint64_t metrics_count = r.U64();
  std::vector<StepMetrics> metrics;
  for (uint64_t i = 0; i < metrics_count && r.ok(); ++i) {
    StepMetrics m;
    if (!LoadMetrics(&r, &m)) {
      return Status::InvalidArgument(
          "snapshot step metrics carry non-canonical flags");
    }
    metrics.push_back(m);
  }
  const uint64_t transcript_count = r.U64();
  Transcript transcript;
  for (uint64_t i = 0; i < transcript_count && r.ok(); ++i) {
    const uint8_t kind = r.U8();
    TranscriptEvent e{TranscriptEvent::Kind::kUpload, 0, 0};
    e.t = r.U64();
    e.rows = r.U64();
    if (!r.ok()) break;
    if (kind > static_cast<uint8_t>(TranscriptEvent::Kind::kFlush)) {
      return Status::InvalidArgument(
          "snapshot transcript carries an unknown event kind");
    }
    e.kind = static_cast<TranscriptEvent::Kind>(kind);
    transcript.push_back(e);
  }
  const uint64_t release_count = r.U64();
  std::vector<LeakageRelease> releases;
  for (uint64_t i = 0; i < release_count && r.ok(); ++i) {
    LeakageRelease rel;
    rel.t = r.U64();
    rel.size = r.U32();
    const uint8_t fired = r.U8();
    if (!r.ok()) break;
    if (fired > 1) {
      return Status::InvalidArgument(
          "snapshot release log carries non-canonical flags");
    }
    rel.fired = fired == 1;
    releases.push_back(rel);
  }
  const uint64_t real_count = r.U64();
  std::vector<uint32_t> real_entries;
  for (uint64_t i = 0; i < real_count && r.ok(); ++i) {
    real_entries.push_back(r.U32());
  }
  const uint64_t up1_count = r.U64();
  std::vector<uint64_t> up1_log;
  for (uint64_t i = 0; i < up1_count && r.ok(); ++i) {
    up1_log.push_back(r.U64());
  }
  const uint64_t up2_count = r.U64();
  std::vector<uint64_t> up2_log;
  for (uint64_t i = 0; i < up2_count && r.ok(); ++i) {
    up2_log.push_back(r.U64());
  }
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("engine logs"));
  if (up1_log.size() != t || up2_log.size() != t ||
      !StoreMatchesLog(store1, up1_log) || !StoreMatchesLog(store2, up2_log)) {
    return Status::InvalidArgument(
        "snapshot stores disagree with the logged upload sizes");
  }

  UploadChannel ch1(config_.upload_channel_capacity);
  UploadChannel ch2(config_.upload_channel_capacity);
  INCSHRINK_RETURN_NOT_OK(LoadChannel(&r, kTagChannel1, &ch1));
  INCSHRINK_RETURN_NOT_OK(LoadChannel(&r, kTagChannel2, &ch2));

  INCSHRINK_RETURN_NOT_OK(r.Finish());

  // Commit phase. The ledger restore validates its own invariants and is
  // atomic, so it goes first; everything after it cannot fail (store widths
  // and row totals were validated above, the rest are plain assignments).
  // No step below draws randomness — restored cursors resume the exact
  // party streams.
  INCSHRINK_RETURN_NOT_OK(accountant_.RestoreLedger(ledger));
  INCSHRINK_RETURN_NOT_OK(store1_.Restore(
      store1.first_retained, store1.total_rows, std::move(store1.batches)));
  INCSHRINK_RETURN_NOT_OK(store2_.Restore(
      store2.first_retained, store2.total_rows, std::move(store2.batches)));
  s0_.rng()->RestoreState(rng0);
  s1_.rng()->RestoreState(rng1);
  proto_.internal_rng()->RestoreState(proto_rng);
  proto_.RestoreStats(proto_stats);
  cache_.RestoreCursors(cache_seq, append_cursor);
  for (size_t k = 0; k < cache_.num_shards(); ++k) {
    *cache_.shard(k).rows() = std::move(shard_rows[k]);
    cache_.shard(k).RestoreCounter(shard_counters[k]);
    cache_.shard(k).RestoreSeq(shard_seqs[k]);
  }
  if (has_derived == 1) {
    for (size_t k = 0; k < cache_.num_shards(); ++k) {
      cache_.shard_party(k, 0)->rng()->RestoreState(shard_party_rngs[2 * k]);
      cache_.shard_party(k, 1)->rng()->RestoreState(
          shard_party_rngs[2 * k + 1]);
      cache_.shard_proto(k)->internal_rng()->RestoreState(
          shard_proto_rngs[k]);
      cache_.shard_proto(k)->RestoreStats(shard_stats[k]);
    }
  }
  for (size_t k = 0; k < ants_.size(); ++k) {
    ants_[k]->RestoreTheta(thetas[k]);
  }
  view_.RestoreRows(std::move(view_rows));
  truth_ = std::move(truth);
  t_ = t;
  frames_drained_ = frames_drained;
  filter_truth_ = filter_truth;
  total_real_entries_ = total_real_entries;
  metrics_ = std::move(metrics);
  transcript_ = std::move(transcript);
  releases_ = std::move(releases);
  real_entries_per_step_ = std::move(real_entries);
  upload_rows_t1_log_ = std::move(up1_log);
  upload_rows_t2_log_ = std::move(up2_log);
  channel1_ = std::move(ch1);
  channel2_ = std::move(ch2);
  return Status::OK();
}

double Engine::ComposedEpsilon() const {
  const double owner1 = UploadPolicyEpsilon(config_.upload_policy1);
  const double owner2 =
      config_.t2_is_public ? 0.0 : UploadPolicyEpsilon(config_.upload_policy2);
  return config_.eps + std::max(owner1, owner2);
}

}  // namespace incshrink
