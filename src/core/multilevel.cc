#include "src/core/multilevel.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/relational/encode.h"

namespace incshrink {

namespace {

IncShrinkConfig MakeStage1Config(const MultiLevelPipeline::Config& c) {
  IncShrinkConfig cfg;
  cfg.eps = c.eps1;
  cfg.omega = 1;
  cfg.budget_b = 1;  // selection is 1-stable; one participation per record
  cfg.view_kind = ViewKind::kFilter;
  cfg.filter = c.filter;
  cfg.join.omega = 1;
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = c.timer_T1;
  cfg.flush_interval = 0;
  cfg.upload_rows_t1 = c.upload_rows_t1;
  cfg.upload_rows_t2 = c.upload_rows_t2;
  cfg.cost_model = c.cost_model;
  cfg.seed = c.seed + 1;
  return cfg;
}

IncShrinkConfig MakeStage2Config(const MultiLevelPipeline::Config& c) {
  IncShrinkConfig cfg;
  cfg.eps = c.eps2;
  cfg.omega = c.omega;
  cfg.budget_b = c.budget_b;
  cfg.view_kind = ViewKind::kWindowJoin;
  cfg.join = c.join;
  cfg.join.omega = c.omega;
  cfg.window_steps = c.window_steps;
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = c.timer_T2;
  cfg.flush_interval = 0;
  cfg.upload_rows_t1 = c.upload_rows_t1;
  cfg.upload_rows_t2 = c.upload_rows_t2;
  cfg.cost_model = c.cost_model;
  cfg.seed = c.seed + 2;
  return cfg;
}

}  // namespace

MultiLevelPipeline::MultiLevelPipeline(const Config& config)
    : config_(config),
      s0_(0, config.seed * 31 + 7),
      s1_(1, config.seed * 37 + 11),
      proto_(&s0_, &s1_, config.cost_model),
      stage1_cfg_(MakeStage1Config(config)),
      stage2_cfg_(MakeStage2Config(config)),
      accountant1_(stage1_cfg_.eps, stage1_cfg_.budget_b, stage1_cfg_.omega),
      accountant2_(stage2_cfg_.eps, stage2_cfg_.budget_b, stage2_cfg_.omega),
      transform1_(&proto_, stage1_cfg_, &accountant1_),
      transform2_(&proto_, stage2_cfg_, &accountant2_),
      shrink1_(std::make_unique<ShrinkTimer>(&proto_, stage1_cfg_)),
      shrink2_(std::make_unique<ShrinkTimer>(&proto_, stage2_cfg_)),
      store_t1_(kSrcWidth),
      store_v1_(kSrcWidth),
      store_t2_(kSrcWidth),
      cache1_(&proto_),
      cache2_(&proto_),
      truth_(WindowJoinQuery{config.join.window_lo, config.join.window_hi,
                             config.join.use_window}),
      owner_rng_(config.seed ^ 0xBEEF1234CAFE5678ull) {
  INCSHRINK_CHECK(stage1_cfg_.Validate().ok());
  INCSHRINK_CHECK(stage2_cfg_.Validate().ok());
}

SharedRows MultiLevelPipeline::ViewRowsToSourceRows(const SharedRows& rows) {
  // In-circuit rewiring: per row, copy key/date/rid and map isView -> valid.
  proto_.AccountAndGates(rows.size() * kSrcWidth * kWordBits);
  Rng* rng = proto_.internal_rng();
  SharedRows out(kSrcWidth);
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<Word> view = rows.RecoverRow(r);
    // oblivious-ok: ideal-functionality rewiring — per-row copy/mux circuit
    // charged above; exactly one fresh-shared source row is emitted per view
    // row, real or dummy
    if (view[kViewIsViewCol] & 1) {
      std::vector<Word> src(kSrcWidth);
      src[kSrcValidCol] = 1;
      src[kSrcKeyCol] = view[kViewKeyCol];
      src[kSrcDateCol] = view[kViewDate1Col];
      src[kSrcRidCol] = view[kViewRid1Col];
      src[kSrcPayloadCol] = view[kViewRid2Col];
      out.AppendSecretRow(src, rng);
    } else {
      out.AppendSecretRow(MakeDummySourceRow(rng), rng);
    }
  }
  return out;
}

Status MultiLevelPipeline::Step(const std::vector<LogicalRecord>& new1,
                                const std::vector<LogicalRecord>& new2) {
  ++t_;
  StepMetrics m;
  m.t = t_;

  // Ground truth: filtered T1 stream joined with T2.
  std::vector<LogicalRecord> filtered;
  for (const LogicalRecord& rec : new1) {
    if (rec.payload >= config_.filter.lo && rec.payload <= config_.filter.hi)
      filtered.push_back(rec);
  }
  m.true_count = truth_.Step(filtered, new2);

  // Owner uploads (fixed-size policy for both streams).
  auto upload = [&](const std::vector<LogicalRecord>& arrivals,
                    std::vector<LogicalRecord>* overflow,
                    OutsourcedTable* store, uint32_t rows) {
    std::vector<LogicalRecord> pending = std::move(*overflow);
    overflow->clear();
    pending.insert(pending.end(), arrivals.begin(), arrivals.end());
    SharedRows batch(kSrcWidth);
    size_t i = 0;
    for (; i < pending.size() && i < rows; ++i)
      batch.AppendSecretRow(EncodeSourceRow(pending[i]), &owner_rng_);
    while (batch.size() < rows)
      batch.AppendSecretRow(MakeDummySourceRow(&owner_rng_), &owner_rng_);
    overflow->assign(pending.begin() + i, pending.end());
    store->AppendBatch(std::move(batch));
  };
  upload(new1, &overflow1_, &store_t1_, config_.upload_rows_t1);
  upload(new2, &overflow2_, &store_t2_, config_.upload_rows_t2);

  // ---- Stage 1: oblivious selection + DP shrink into V1. Its synchronized
  // rows form the (public-size) input stream of stage 2.
  const CircuitStats before1 = proto_.Snapshot();
  INCSHRINK_ASSIGN_OR_RETURN(
      const TransformProtocol::StepResult tr1,
      transform1_.StepFilter(t_, store_t1_, &cache1_));
  (void)tr1;
  const ShrinkResult sync1 = shrink1_->Step(t_, &cache1_, &view1_);
  SharedRows stage2_input(kSrcWidth);
  if (sync1.fired && sync1.sync_rows > 0) {
    // The freshly synchronized block is both appended to V1 and re-encoded
    // as stage-2 source rows.
    const SharedRows& v1 = view1_.rows();
    SharedRows synced(kViewWidth);
    for (size_t r = v1.size() - sync1.sync_rows; r < v1.size(); ++r) {
      synced.AppendSharedRow(
          std::vector<Word>(v1.shares0().begin() + r * kViewWidth,
                            v1.shares0().begin() + (r + 1) * kViewWidth),
          std::vector<Word>(v1.shares1().begin() + r * kViewWidth,
                            v1.shares1().begin() + (r + 1) * kViewWidth));
    }
    stage2_input = ViewRowsToSourceRows(synced);
  }
  store_v1_.AppendBatch(std::move(stage2_input));
  m.transform_seconds = proto_.SimulatedSecondsSince(before1);

  // ---- Stage 2: truncated join of the stage-1 output stream against T2.
  const CircuitStats before2 = proto_.Snapshot();
  INCSHRINK_ASSIGN_OR_RETURN(
      const TransformProtocol::StepResult tr2,
      transform2_.Step(t_, store_v1_, store_t2_, &cache2_));
  (void)tr2;
  const ShrinkResult sync2 = shrink2_->Step(t_, &cache2_, &view2_);
  m.shrink_seconds = proto_.SimulatedSecondsSince(before2);
  m.synced = sync2.fired;
  m.sync_rows = sync2.sync_rows;

  // Both Transforms have run: evict every batch no future invocation of
  // the stage reading the store can reach.
  store_t1_.EvictBefore(TransformProtocol::RetainFrom(stage1_cfg_, t_));
  const uint64_t floor2 = TransformProtocol::RetainFrom(stage2_cfg_, t_);
  store_v1_.EvictBefore(floor2);
  store_t2_.EvictBefore(floor2);

  // ---- Analyst query over V2.
  const CircuitStats before_q = proto_.Snapshot();
  const WordShares count = ObliviousCountWhere(
      &proto_, view2_.rows(), kViewIsViewCol, ObliviousPredicate::True());
  m.view_answer = proto_.Reveal(count);
  m.query_seconds = proto_.SimulatedSecondsSince(before_q);

  m.l1_error = std::abs(static_cast<double>(m.view_answer) -
                        static_cast<double>(m.true_count));
  m.relative_error =
      m.l1_error / std::max<double>(1.0, static_cast<double>(m.true_count));
  m.view_rows = view2_.size();
  m.cache_rows = cache1_.size() + cache2_.size();
  metrics_.push_back(m);
  return Status::OK();
}

RunSummary MultiLevelPipeline::Summary() const {
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
    s.total_mpc_seconds += m.transform_seconds + m.shrink_seconds;
    s.total_query_seconds += m.query_seconds;
  }
  s.steps = metrics_.size();
  s.final_view_mb = view1_.SizeMb() + view2_.SizeMb();
  s.final_view_rows = view2_.size();
  if (!metrics_.empty()) s.final_true_count = metrics_.back().true_count;
  return s;
}

}  // namespace incshrink
