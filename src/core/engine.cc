#include "src/core/engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
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
// fixed order, each written once below as a Visit for both archives; every
// variable-length list is count-prefixed and decoded under the reader's
// ok() guard, so hostile counts can never read past a section.
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

/// CLK: the step clock, drained frames, the filter view's ground truth and
/// the lifetime real-entry total.
struct EngineClocks {
  uint64_t t = 0;
  uint64_t frames_drained = 0;
  uint64_t filter_truth = 0;
  uint64_t total_real_entries = 0;
};

template <class A>
void Visit(A& a, FieldRef<A, EngineClocks> c) {
  a.U64(c.t);
  a.U64(c.frames_drained);
  a.U64(c.filter_truth);
  a.U64(c.total_real_entries);
}

/// One protocol's randomness: both parties' stream cursors, the protocol's
/// own stream and its circuit counters. The engine's RNG section, and one
/// per derived cache-shard protocol.
struct ProtocolStreams {
  RngState party0;
  RngState party1;
  RngState proto;
  CircuitStats stats;
};

template <class A>
void Visit(A& a, FieldRef<A, ProtocolStreams> s) {
  Visit(a, s.party0);
  Visit(a, s.party1);
  Visit(a, s.proto);
  Visit(a, s.stats);
}

ProtocolStreams ExportStreams(Party* p0, Party* p1, Protocol2PC* proto) {
  return {p0->rng()->ExportState(), p1->rng()->ExportState(),
          proto->internal_rng()->ExportState(), proto->Snapshot()};
}

void RestoreStreams(const ProtocolStreams& s, Party* p0, Party* p1,
                    Protocol2PC* proto) {
  p0->rng()->RestoreState(s.party0);
  p1->rng()->RestoreState(s.party1);
  proto->internal_rng()->RestoreState(s.proto);
  proto->RestoreStats(s.stats);
}

/// One cache shard's rows, counter sharing and insertion sequence.
template <class A>
void VisitShard(A& a, FieldRef<A, SharedRows> rows,
                FieldRef<A, WordShares> counter, FieldRef<A, uint64_t> seq) {
  Visit(a, rows);
  a.Check(rows.width() == kViewWidth,
          "snapshot cache shard has the wrong row width");
  Visit(a, counter);
  a.U64(seq);
}

template <class A>
void Visit(A& a, FieldRef<A, StepMetrics> m) {
  a.U64(m.t);
  a.F64(m.transform_seconds);
  a.F64(m.shrink_seconds);
  a.F64(m.query_seconds);
  a.U64(m.true_count);
  a.U64(m.view_answer);
  a.F64(m.l1_error);
  a.F64(m.relative_error);
  a.U64(m.view_rows);
  a.U64(m.cache_rows);
  const uint8_t synced = a.U8(m.synced);
  a.U64(m.sync_rows);
  const uint8_t flushed = a.U8(m.flushed);
  if (synced > 1 || flushed > 1) {
    a.Reject(Status::InvalidArgument(
        "snapshot step metrics carry non-canonical flags"));
  }
}

/// True when a decoded store agrees with its per-step upload-size log: the
/// lifetime total is the log's sum and each held batch has its logged size.
bool StoreMatchesLog(const OutsourcedTable& store,
                     const std::vector<uint64_t>& log) {
  uint64_t total = 0;
  for (const uint64_t rows : log) {
    if (rows > std::numeric_limits<uint64_t>::max() - total) return false;
    total += rows;
  }
  if (total != store.total_rows() || store.steps() > log.size()) return false;
  for (uint64_t s = store.first_retained(); s < store.steps(); ++s) {
    if (store.batch(s).size() != log[s]) return false;
  }
  return true;
}

constexpr char kFingerprintWhat[] = "snapshot fingerprint";
constexpr char kConfigMismatch[] =
    "snapshot was taken under a different configuration";

}  // namespace

/// LOGS: the per-step metrics, the public transcript, the DP release log,
/// the per-step real-entry counts and both per-step upload-size logs.
template <class A>
void Visit(A& a, FieldRef<A, EngineLogs> logs) {
  VisitList(a, logs.metrics, [&](auto& m) { Visit(a, m); });
  VisitList(a, logs.transcript, [&](auto& e) {
    uint8_t kind = static_cast<uint8_t>(e.kind);
    a.U8(kind);
    a.U64(e.t);
    a.U64(e.rows);
    a.Check(kind <= static_cast<uint8_t>(TranscriptEvent::Kind::kFlush),
            "snapshot transcript carries an unknown event kind");
    if constexpr (A::kRestoring) {
      e.kind = static_cast<TranscriptEvent::Kind>(kind);
    }
  });
  VisitList(a, logs.releases, [&](auto& rel) {
    a.U64(rel.t);
    a.U32(rel.size);
    a.Check(a.U8(rel.fired) <= 1,
            "snapshot release log carries non-canonical flags");
  });
  VisitList(a, logs.real_entries_per_step, [&](auto& v) { a.U32(v); });
  VisitList(a, logs.upload_rows_t1, [&](auto& v) { a.U64(v); });
  VisitList(a, logs.upload_rows_t2, [&](auto& v) { a.U64(v); });
}

namespace {

/// One engine snapshot's sections for archive A: the live members when
/// saving (by const reference, so no share array, run or frame is copied;
/// the small clock, stream and ledger values are exported first), scratch
/// when restoring. `shard(k)` and `shard_streams(k)` visit cache shard k.
template <class A>
struct EngineSections {
  FieldRef<A, EngineClocks> clocks;
  FieldRef<A, ProtocolStreams> streams;
  FieldRef<A, std::vector<PrivacyAccountant::LedgerEntry>> ledger;
  FieldRef<A, OutsourcedTable> store1;
  FieldRef<A, OutsourcedTable> store2;
  FieldRef<A, uint64_t> cache_seq;
  FieldRef<A, uint64_t> append_cursor;
  FieldRef<A, bool> derived;
  std::function<void(size_t)> shard;
  std::function<void(size_t)> shard_streams;
  FieldRef<A, std::vector<WordShares>> thetas;
  FieldRef<A, SharedRows> view;
  FieldRef<A, WindowJoinCounter> truth;
  FieldRef<A, EngineLogs> logs;
  FieldRef<A, UploadChannel> channel1;
  FieldRef<A, UploadChannel> channel2;
};

/// The engine's section order, once for both archives. The shape arguments
/// are this engine's; a restore rejects a snapshot of another shape.
template <class A>
void VisitEngine(A& a, const IncShrinkConfig& config, size_t num_shards,
                 bool derived_shards, size_t num_ants,
                 const EngineSections<A>& s) {
  VisitFingerprint(a, kTagFingerprint, ConfigFingerprint(config),
                   kFingerprintWhat, kConfigMismatch);
  VisitSection(a, kTagClocks, s.clocks);
  VisitSection(a, kTagRandomness, s.streams);
  a.Expect("engine clocks and randomness");
  a.BeginSection(kTagLedger);
  VisitList(a, s.ledger, [&](auto& e) {
    a.U32(e.rid);
    a.U32(e.charged);
    a.U32(e.contributed);
  });
  a.EndSection();
  a.Expect("privacy ledger");
  // Every store holds exactly the batches at or above the clock's retention
  // floor; filter views never upload T2, so store 2 stays empty.
  const uint64_t t = s.clocks.t;
  const uint64_t floor = TransformProtocol::RetainFrom(config, t);
  const uint64_t steps2 = config.view_kind != ViewKind::kFilter ? t : 0;
  Visit(a, s.store1, kTagStore1, t, floor);
  Visit(a, s.store2, kTagStore2, steps2, std::min(floor, steps2));
  // CSHD: the FIFO sequence, append cursor and shard count, each shard's
  // VisitShard, then a derived-protocol flag and, when set, each shard's
  // ProtocolStreams.
  a.BeginSection(kTagCache);
  a.U64(s.cache_seq);
  a.U64(s.append_cursor);
  uint64_t count = num_shards;
  a.U64(count);
  a.Expect("sharded cache header");
  a.Check(count == num_shards,
          "snapshot shard count disagrees with this engine's configuration");
  for (uint64_t k = 0; k < count && a.ok(); ++k) s.shard(k);
  const uint8_t flag = a.U8(s.derived);
  if (s.derived) {
    for (uint64_t k = 0; k < count && a.ok(); ++k) s.shard_streams(k);
  }
  a.EndSection();
  a.Expect("sharded cache");
  a.Check(flag <= 1 && s.derived == derived_shards,
          "snapshot cache shape disagrees with this engine's sharding");
  // THTA: the sDPANT threshold sharings, one per shard (none for other
  // strategies).
  a.BeginSection(kTagTheta);
  VisitList(a, s.thetas, [&](auto& theta) { Visit(a, theta); });
  a.EndSection();
  a.Expect("ANT thresholds");
  a.Check(s.thetas.size() == num_ants,
          "snapshot strategy state disagrees with this engine's strategy");
  VisitSection(a, kTagView, s.view);
  a.Expect("materialized view");
  a.Check(s.view.width() == kViewWidth,
          "snapshot view has the wrong row width");
  VisitSection(a, kTagTruth, s.truth);
  a.Expect("ground-truth counter");
  VisitSection(a, kTagLogs, s.logs);
  a.Expect("engine logs");
  if constexpr (A::kRestoring) {
    if (a.ok()) {
      a.Check(s.logs.upload_rows_t1.size() == t &&
                  s.logs.upload_rows_t2.size() == t &&
                  StoreMatchesLog(s.store1, s.logs.upload_rows_t1) &&
                  StoreMatchesLog(s.store2, s.logs.upload_rows_t2),
              "snapshot stores disagree with the logged upload sizes");
    }
  }
  Visit(a, s.channel1, kTagChannel1);
  Visit(a, s.channel2, kTagChannel2);
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
  logs_.upload_rows_t1.push_back(up1);
  logs_.upload_rows_t2.push_back(up2);
  logs_.transcript.push_back(
      {TranscriptEvent::Kind::kUpload, t_, up1 + up2});

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
    logs_.real_entries_per_step.push_back(tr.real_entries);
    total_real_entries_ += tr.real_entries;
    logs_.transcript.push_back(
        {TranscriptEvent::Kind::kTransformOut, t_, tr.appended_rows});
  } else {
    logs_.real_entries_per_step.push_back(0);
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
        logs_.transcript.push_back({TranscriptEvent::Kind::kSync, t_, rows});
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
        logs_.transcript.push_back(
            {TranscriptEvent::Kind::kSync, t_, syncs[k].sync_rows});
      }
      if (flushes[k].fired) {
        m.flushed = true;
        m.shrink_seconds += flushes[k].simulated_seconds;
        view_.Append(staged_flush[k].rows());
        logs_.transcript.push_back(
            {TranscriptEvent::Kind::kFlush, t_, flushes[k].sync_rows});
      }
    }
  }
  logs_.releases.push_back(p.release);

  // Analyst query.
  m.view_answer = AnswerQuery(&m.query_seconds);
  m.l1_error = std::abs(static_cast<double>(m.view_answer) -
                        static_cast<double>(m.true_count));
  m.relative_error =
      m.l1_error / std::max<double>(1.0, static_cast<double>(m.true_count));
  m.view_rows = view_.size();
  m.cache_rows = cache_.size();
  logs_.metrics.push_back(m);
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
  for (const StepMetrics& m : logs_.metrics) {
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
  s.steps = logs_.metrics.size();
  s.final_view_mb = view_.SizeMb();
  s.final_view_rows = view_.size();
  s.final_cache_rows = cache_.size();
  s.total_real_entries_cached = total_real_entries_;
  if (!logs_.metrics.empty()) {
    s.final_true_count = logs_.metrics.back().true_count;
  }
  return s;
}

SimulatorPublicParams Engine::MakeSimulatorParams() const {
  SimulatorPublicParams pp;
  const std::vector<uint64_t> u1 = logs_.upload_rows_t1;
  const std::vector<uint64_t> u2 = logs_.upload_rows_t2;
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
  CheckpointWriter w;
  INCSHRINK_RETURN_NOT_OK(SaveSections(w));
  std::vector<uint8_t> blob = w.Finish();
  INCSHRINK_RETURN_NOT_OK(CheckSnapshotSize(blob.size()));
  return blob;
}

Status Engine::SaveCheckpoint(CheckpointWriter* outer) {
  outer->BeginContainer();
  const Status saved = SaveSections(*outer);
  const size_t bytes = outer->EndContainer();
  INCSHRINK_RETURN_NOT_OK(saved);
  return CheckSnapshotSize(bytes);
}

Status Engine::CheckSnapshotSize(size_t bytes) const {
  if (bytes > config_.checkpoint_max_bytes) {
    return Status::OutOfRange(
        "snapshot exceeds checkpoint_max_bytes; raise the ceiling or "
        "checkpoint a smaller deployment");
  }
  return Status::OK();
}

Status Engine::SaveSections(CheckpointWriter& w) {
  if (pending_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot checkpoint between BeginStep and FinishStep");
  }
  const ShardedSecureCache& cache = cache_;
  const bool derived = cache_.shard_party(0, 0) != nullptr;
  std::vector<WordShares> thetas;
  for (const auto& ant : ants_) thetas.push_back(ant->shared_theta());
  VisitEngine(
      w, config_, cache.num_shards(), derived, ants_.size(),
      {EngineClocks{t_, frames_drained_, filter_truth_, total_real_entries_},
       ExportStreams(&s0_, &s1_, &proto_), accountant_.ExportLedger(),
       store1_, store2_, *cache_.seq(), cache.append_cursor(), derived,
       [&](size_t k) {
         VisitShard(w, cache.shard(k).rows(), cache.shard(k).counter(),
                    cache.shard(k).seq_value());
       },
       [&](size_t k) {
         Visit(w, ExportStreams(cache_.shard_party(k, 0),
                                cache_.shard_party(k, 1),
                                cache_.shard_proto(k)));
       },
       thetas, view_.rows(), truth_, logs_, channel1_, channel2_});
  return Status::OK();
}

Status Engine::RestoreCheckpoint(std::span<const uint8_t> snapshot) {
  if (pending_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot restore between BeginStep and FinishStep");
  }
  INCSHRINK_ASSIGN_OR_RETURN(CheckpointReader r,
                             CheckpointReader::Open(snapshot));

  // Decode phase: every section lands in scratch; no engine member is
  // touched until every section (and the container itself) has validated.
  const size_t num_shards = cache_.num_shards();
  const bool derived_shards = cache_.shard_party(0, 0) != nullptr;
  EngineClocks clocks;
  ProtocolStreams streams;
  std::vector<PrivacyAccountant::LedgerEntry> ledger;
  OutsourcedTable store1(kSrcWidth);
  OutsourcedTable store2(kSrcWidth);
  uint64_t cache_seq = 0;
  uint64_t append_cursor = 0;
  std::vector<SharedRows> shard_rows(num_shards, SharedRows(kViewWidth));
  std::vector<WordShares> shard_counters(num_shards);
  std::vector<uint64_t> shard_seqs(num_shards);
  bool derived = false;
  std::vector<ProtocolStreams> shard_streams(num_shards);
  std::vector<WordShares> thetas;
  SharedRows view_rows(kViewWidth);
  WindowJoinCounter truth(truth_.query());
  EngineLogs logs;
  UploadChannel ch1(config_.upload_channel_capacity);
  UploadChannel ch2(config_.upload_channel_capacity);

  VisitEngine(
      r, config_, num_shards, derived_shards, ants_.size(),
      {clocks, streams, ledger, store1, store2, cache_seq, append_cursor,
       derived,
       [&](size_t k) {
         VisitShard(r, shard_rows[k], shard_counters[k], shard_seqs[k]);
       },
       [&](size_t k) { Visit(r, shard_streams[k]); }, thetas, view_rows,
       truth, logs, ch1, ch2});
  INCSHRINK_RETURN_NOT_OK(r.Finish());

  // Commit phase. The ledger restore validates its own invariants and is
  // atomic, so it goes first; everything after it is a move or a plain
  // assignment and cannot fail. No step below draws randomness — restored
  // cursors resume the exact party streams.
  INCSHRINK_RETURN_NOT_OK(accountant_.RestoreLedger(ledger));
  store1_ = std::move(store1);
  store2_ = std::move(store2);
  RestoreStreams(streams, &s0_, &s1_, &proto_);
  cache_.RestoreCursors(cache_seq, append_cursor);
  for (size_t k = 0; k < num_shards; ++k) {
    *cache_.shard(k).rows() = std::move(shard_rows[k]);
    cache_.shard(k).RestoreCounter(shard_counters[k]);
    cache_.shard(k).RestoreSeq(shard_seqs[k]);
    if (derived) {
      RestoreStreams(shard_streams[k], cache_.shard_party(k, 0),
                     cache_.shard_party(k, 1), cache_.shard_proto(k));
    }
  }
  for (size_t k = 0; k < ants_.size(); ++k) {
    ants_[k]->RestoreTheta(thetas[k]);
  }
  view_.RestoreRows(std::move(view_rows));
  truth_ = std::move(truth);
  t_ = clocks.t;
  frames_drained_ = clocks.frames_drained;
  filter_truth_ = clocks.filter_truth;
  total_real_entries_ = clocks.total_real_entries;
  logs_ = std::move(logs);
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
