// The five workloads of the end-to-end benchmark. Each drives the library
// only through its public calls, closed loop: owners run in lockstep with the
// engine (the paper's synchronous time-step model), and the fleet lets owners
// run at most `owner_lead` steps ahead.
//
// Why each workload exists is recorded in bench/e2e/README.md and in the
// repo-root BENCHMARK.json.

#include <algorithm>
#include <cstring>
#include <utility>

#include "bench/e2e/harness.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/core/socket_deployment.h"
#include "src/oblivious/sort.h"
#include "src/storage/checkpoint.h"
#include "src/workload/generators.h"

namespace incshrink::e2e {
namespace {

/// FNV-1a over 64-bit words, folded byte by byte (the bench_shard_scaling
/// EngineFingerprint idiom).
struct Fingerprint {
  uint64_t hash = 0xcbf29ce484222325ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ull;
    }
  }
  void MixDouble(double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
};

/// Folds an engine's results: the RunSummary fields, the transcript and the
/// DP releases.
void MixEngine(const Engine& engine, Fingerprint* fp) {
  const RunSummary s = engine.Summary();
  fp->Mix(s.steps);
  fp->Mix(s.updates);
  fp->Mix(s.flushes);
  fp->Mix(s.final_view_rows);
  fp->Mix(s.final_cache_rows);
  fp->Mix(s.final_true_count);
  fp->Mix(s.total_real_entries_cached);
  fp->MixDouble(s.l1_error.mean());
  fp->MixDouble(s.total_mpc_seconds);
  fp->MixDouble(s.total_query_seconds);
  for (const TranscriptEvent& e : engine.transcript()) {
    fp->Mix(static_cast<uint64_t>(e.kind));
    fp->Mix(e.t);
    fp->Mix(e.rows);
  }
  for (const LeakageRelease& r : engine.releases()) {
    fp->Mix(r.t);
    fp->Mix(r.size);
    fp->Mix(r.fired ? 1 : 0);
  }
}

/// splitmix64: one benchmark seed fans out into independent generator seeds.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

GeneratedWorkload TpcDsStream(uint64_t steps, double scale, uint64_t seed) {
  TpcDsParams p;
  p.steps = steps;
  p.scale = scale;
  p.seed = seed;
  return GenerateTpcDs(p);
}

IncShrinkConfig TpcDsConfig(double scale, Strategy strategy) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  ScaleConfigBatches(&cfg, scale);
  cfg.strategy = strategy;
  return cfg;
}

void AddTraceTotals(const Protocol2PC& proto, LayerCounts* lc) {
  for (const BatchTraceEvent& ev : proto.batch_trace()) {
    LayerCounts::Kernel& k = lc->mpc[static_cast<size_t>(ev.kind)];
    k.ops += ev.ops;
    k.and_gates += ev.cost.and_gates;
    ++k.batches;
  }
}

/// One engine step after the owners' frames are queued: BeginStep, the
/// fired shards' sync sorts, FinishStep, each in its own layer span. The
/// sorts run exactly as FinishStep would run them itself (serial batch
/// execution; a one-shard engine has no pool).
Status EngineStep(Engine* engine, uint64_t step, int32_t parent,
                  Tracer* tracer, LayerCounts* lc) {
  Protocol2PC* proto = engine->proto();
  const bool traced = tracer->enabled();
  CircuitStats before;
  {
    ScopedSpan span(tracer, Layer::kBegin, step, parent);
    if (traced) before = proto->Snapshot();
    const uint64_t drained = engine->frames_drained();
    const Status st = engine->BeginStep();
    lc->begin_frames_drained += engine->frames_drained() - drained;
    if (traced) lc->begin_cost.Add(proto->StatsSince(before));
    if (!st.ok()) return st;
  }
  {
    ScopedSpan span(tracer, Layer::kSort, step, parent);
    std::vector<SortJob> jobs = engine->TakePendingSortJobs();
    if (!jobs.empty()) {
      if (traced) before = proto->Snapshot();
      for (const SortJob& job : jobs) lc->sort_rows += job.rows->size();
      lc->sort_jobs += jobs.size();
      ObliviousSortBatch(
          jobs.data(), jobs.size(),
          BatchExec{nullptr, engine->config().oblivious_batch_min_layer});
      if (traced) lc->sort_cost.Add(proto->StatsSince(before));
    }
  }
  ScopedSpan span(tracer, Layer::kFinish, step, parent);
  if (traced) before = proto->Snapshot();
  const Status st = engine->FinishStep();
  if (traced) lc->finish_cost.Add(proto->StatsSince(before));
  if (st.ok() && engine->step_metrics().back().flushed) ++lc->finish_flushes;
  return st;
}

void FillResults(const Engine& engine, RepResult* rep) {
  const RunSummary s = engine.Summary();
  rep->steps = s.steps;
  rep->rel_error = s.OverallRelativeError();
  rep->view_mb = s.final_view_mb;
}

// ---------------------------------------------------------------------------
// In-process deployments: q1_timer, q2_ant_shuffle, q1_reads
// ---------------------------------------------------------------------------

/// One SynchronousDeployment's owners and engine driven step by step, with
/// optional ad-hoc reads after every step and optional checkpoints.
struct InProcessSpec {
  IncShrinkConfig config;
  GeneratedWorkload stream;
  /// q1_reads: AnswerAdHocQuery calls after every step, alternating
  /// CountKeyEquals and CountDateRange, drawn from a seeded stream.
  uint32_t queries_per_step = 0;
  /// q1_reads: every this many steps, CountDateRange over a partition of the
  /// date domain must sum to CountAll, which must equal the step's COUNT.
  uint32_t partition_every = 0;
  /// q2_ant_shuffle: SaveCheckpoint every this many steps, then a final
  /// save, a cold restore, and save(restore(save)) == save.
  uint32_t checkpoint_every = 0;
};

class InProcessWorkload : public Workload {
 public:
  InProcessWorkload(InProcessSpec spec, uint64_t query_seed)
      : spec_(std::move(spec)) {
    if (spec_.queries_per_step > 0) MakeQueries(query_seed);
  }

  Result<double> SetupOnly() override {
    const int64_t t0 = NowNs();
    SynchronousDeployment dep(spec_.config);
    return SecondsBetween(t0, NowNs());
  }

  RepResult Run(Tracer* tracer) override {
    RepResult rep;
    const int64_t t0 = NowNs();
    SynchronousDeployment dep(spec_.config);
    rep.setup_s = SecondsBetween(t0, NowNs());
    Engine& engine = dep.engine();
    std::unique_ptr<Engine> cold;
    if (spec_.checkpoint_every > 0) {
      cold = std::make_unique<Engine>(spec_.config);
    }
    const GeneratedWorkload& w = spec_.stream;
    if (tracer->enabled()) engine.proto()->EnableBatchTrace(true);
    tracer->Reserve(w.steps() * (5 + spec_.queries_per_step) + 64);
    rep.step_ms.reserve(w.steps());
    rep.iter_ms.reserve(w.steps());
    LayerCounts& lc = rep.layers;
    Fingerprint fp;

    const int64_t loop_start = NowNs();
    for (uint64_t t = 0; t < w.steps() && rep.gate_error.empty(); ++t) {
      const int64_t step_start = NowNs();
      const int32_t step_span = tracer->Open(Layer::kStep, t + 1);
      {
        ScopedSpan span(tracer, Layer::kOwner, t + 1, step_span);
        rep.attempted += 2;
        // Lockstep never fills a channel, so a refusal is a failure here.
        if (!dep.owner1().TryStep(w.t1[t])) ++rep.failed;
        if (!dep.owner2().TryStep(w.t2[t])) ++rep.failed;
      }
      ++rep.attempted;
      const Status st = EngineStep(&engine, t + 1, step_span, tracer, &lc);
      tracer->Close(step_span);
      rep.step_ms.push_back(SecondsBetween(step_start, NowNs()) * 1e3);
      if (!st.ok()) {
        ++rep.failed;
        rep.gate_error = "engine step failed: " + st.ToString();
        break;
      }
      if (spec_.queries_per_step > 0) RunQueries(t, &engine, tracer, &rep, &fp);
      if (spec_.checkpoint_every > 0) {
        if (t + 1 == w.steps()) {
          ColdRestoreGate(&engine, cold.get(), tracer, &rep, &fp);
        } else if ((t + 1) % spec_.checkpoint_every == 0) {
          Save(&engine, t + 1, tracer, &rep, &fp);
        }
      }
      rep.iter_ms.push_back(SecondsBetween(step_start, NowNs()) * 1e3);
    }
    rep.loop_s = SecondsBetween(loop_start, NowNs());

    MixEngine(engine, &fp);
    rep.fingerprint = fp.hash;
    FillResults(engine, &rep);
    for (const OwnerClient* owner : {&dep.owner1(), &dep.owner2()}) {
      lc.owner_frames += owner->frames_sent();
      lc.owner_rows += owner->rows_sent();
    }
    for (const UploadChannel* ch : {engine.channel1(), engine.channel2()}) {
      lc.owner_bytes += ch->bytes_pushed();
      lc.owner_backpressure += ch->push_rejects();
    }
    if (tracer->enabled()) AddTraceTotals(*engine.proto(), &lc);
    return rep;
  }

 private:
  void MakeQueries(uint64_t seed) {
    Rng rng(seed);
    const GeneratedWorkload& w = spec_.stream;
    Word max_key = 1;
    for (uint64_t t = 0; t < w.steps(); ++t) {
      for (const LogicalRecord& r : w.t1[t]) max_key = std::max(max_key, r.key);
      for (uint32_t q = 0; q < spec_.queries_per_step; ++q) {
        if (q % 2 == 0) {
          queries_.push_back(AnalystQuery::CountKeyEquals(
              static_cast<Word>(1 + rng.Uniform(max_key))));
        } else {
          const Word lo = static_cast<Word>(1 + rng.Uniform(t + 1));
          queries_.push_back(AnalystQuery::CountDateRange(
              lo, lo + static_cast<Word>(rng.Uniform(30))));
        }
      }
      if (spec_.partition_every > 0 && (t + 1) % spec_.partition_every == 0) {
        // Three increasing cut points inside the dates seen so far (sales
        // are dated by step, returns at most 9 days later).
        const uint64_t third = (t + 10) / 3 + 1;
        std::vector<Word> cuts;
        Word c = 0;
        for (int k = 0; k < 3; ++k) {
          c += static_cast<Word>(1 + rng.Uniform(third));
          cuts.push_back(c);
        }
        cuts_.push_back(std::move(cuts));
      }
    }
  }

  uint64_t Ask(Engine* engine, const AnalystQuery& q, uint64_t step,
               Tracer* tracer, RepResult* rep) {
    ScopedSpan span(tracer, Layer::kAnalyst, step);
    LayerCounts& lc = rep->layers;
    CircuitStats before;
    if (tracer->enabled()) before = engine->proto()->Snapshot();
    const uint64_t answer = engine->AnswerAdHocQuery(q).answer;
    if (tracer->enabled()) {
      lc.query_cost.Add(engine->proto()->StatsSince(before));
    }
    ++lc.queries;
    lc.query_rows_scanned += engine->view().size();
    ++rep->attempted;
    return answer;
  }

  void RunQueries(uint64_t t, Engine* engine, Tracer* tracer, RepResult* rep,
                  Fingerprint* fp) {
    const size_t base = t * spec_.queries_per_step;
    for (uint32_t q = 0; q < spec_.queries_per_step; ++q) {
      fp->Mix(Ask(engine, queries_[base + q], t + 1, tracer, rep));
    }
    if (spec_.partition_every == 0 || (t + 1) % spec_.partition_every != 0) {
      return;
    }
    const std::vector<Word>& cuts = cuts_[(t + 1) / spec_.partition_every - 1];
    Word lo = 0;
    uint64_t sum = 0;
    for (const Word cut : cuts) {
      sum += Ask(engine, AnalystQuery::CountDateRange(lo, cut - 1), t + 1,
                 tracer, rep);
      lo = cut;
    }
    sum += Ask(engine, AnalystQuery::CountDateRange(lo, 0xFFFFFFFFu), t + 1,
               tracer, rep);
    const uint64_t all = Ask(engine, AnalystQuery::CountAll(), t + 1, tracer,
                             rep);
    fp->Mix(all);
    if (sum != all || all != engine->step_metrics().back().view_answer) {
      rep->gate_error = "date-range partition at step " +
                        std::to_string(t + 1) + " sums to " +
                        std::to_string(sum) + ", CountAll " +
                        std::to_string(all) + ", step COUNT " +
                        std::to_string(
                            engine->step_metrics().back().view_answer);
    }
  }

  /// Returns the saved blob, or an empty one after recording the failure.
  std::vector<uint8_t> Save(Engine* engine, uint64_t step, Tracer* tracer,
                            RepResult* rep, Fingerprint* fp) {
    ScopedSpan span(tracer, Layer::kCheckpointSave, step);
    ++rep->attempted;
    Result<std::vector<uint8_t>> blob = engine->SaveCheckpoint();
    if (!blob.ok()) {
      ++rep->failed;
      rep->gate_error = "SaveCheckpoint failed: " + blob.status().ToString();
      return {};
    }
    LayerCounts& lc = rep->layers;
    lc.checkpoint_blob_bytes.push_back(blob->size());
    fp->Mix(Fnv1a64(blob->data(), blob->size()));
    return std::move(blob).value();
  }

  void ColdRestoreGate(Engine* engine, Engine* cold, Tracer* tracer,
                       RepResult* rep, Fingerprint* fp) {
    const uint64_t step = engine->current_step();
    const std::vector<uint8_t> blob = Save(engine, step, tracer, rep, fp);
    if (blob.empty()) return;
    {
      ScopedSpan span(tracer, Layer::kCheckpointRestore, step);
      ++rep->attempted;
      const Status st = cold->RestoreCheckpoint(blob);
      if (!st.ok()) {
        ++rep->failed;
        rep->gate_error = "cold RestoreCheckpoint failed: " + st.ToString();
        return;
      }
      ++rep->layers.checkpoint_restores;
    }
    const std::vector<uint8_t> again = Save(cold, step, tracer, rep, fp);
    if (again != blob) {
      rep->gate_error = "save(restore(save)) differs from save in a cold engine";
    }
  }

  InProcessSpec spec_;
  std::vector<AnalystQuery> queries_;
  std::vector<std::vector<Word>> cuts_;
};

// ---------------------------------------------------------------------------
// ingest_tcp: owners over two real loopback TCP connections
// ---------------------------------------------------------------------------

class IngestTcpWorkload : public Workload {
 public:
  IngestTcpWorkload(IncShrinkConfig config, GeneratedWorkload stream)
      : config_(std::move(config)), stream_(std::move(stream)) {
    options_ = SocketDeployment::DefaultOptions();
    options_.listener.validate_frames = true;
  }

  Result<double> SetupOnly() override {
    const int64_t t0 = NowNs();
    SocketDeployment dep(config_, options_);
    INCSHRINK_RETURN_NOT_OK(dep.Start());
    return SecondsBetween(t0, NowNs());
  }

  RepResult Run(Tracer* tracer) override {
    RepResult rep;
    const int64_t t0 = NowNs();
    SocketDeployment dep(config_, options_);
    const Status started = dep.Start();
    rep.setup_s = SecondsBetween(t0, NowNs());
    if (!started.ok()) {
      rep.gate_error = "SocketDeployment::Start failed: " + started.ToString();
      rep.failed = rep.attempted = 1;
      return rep;
    }
    Engine& engine = dep.engine();
    SocketListener& listener = dep.listener();
    SocketOwnerClient* owners[2] = {&dep.owner1(), &dep.owner2()};
    const GeneratedWorkload& w = stream_;
    if (tracer->enabled()) engine.proto()->EnableBatchTrace(true);
    tracer->Reserve(w.steps() * 5 + 64);
    rep.step_ms.reserve(w.steps());
    rep.iter_ms.reserve(w.steps());
    LayerCounts& lc = rep.layers;

    const int64_t loop_start = NowNs();
    for (uint64_t t = 0; t < w.steps() && rep.gate_error.empty(); ++t) {
      const int64_t step_start = NowNs();
      const int32_t step_span = tracer->Open(Layer::kStep, t + 1);
      {
        ScopedSpan span(tracer, Layer::kOwner, t + 1, step_span);
        const std::vector<LogicalRecord>* arrivals[2] = {&w.t1[t], &w.t2[t]};
        for (int o = 0; o < 2 && rep.gate_error.empty(); ++o) {
          // A refused step is backpressure, not a failure: pump the wire and
          // offer the same arrivals again.
          for (uint32_t i = 0;; ++i) {
            const Result<bool> took = owners[o]->TryStep(*arrivals[o]);
            if (!took.ok() || *took) ++rep.attempted;
            if (!took.ok()) {
              ++rep.failed;
              rep.gate_error = "owner TryStep failed: " +
                               took.status().ToString();
              break;
            }
            if (*took) break;
            listener.Poll();
            ++lc.net_polls;
            if (i >= options_.max_wait_polls) {
              rep.gate_error = "owner step never accepted";
              break;
            }
          }
        }
      }
      {
        ScopedSpan span(tracer, Layer::kNet, t + 1, step_span);
        for (uint32_t i = 0; rep.gate_error.empty(); ++i) {
          for (SocketOwnerClient* owner : owners) {
            const Result<size_t> pumped = owner->Pump();
            if (!pumped.ok()) {
              rep.gate_error = "Pump failed: " + pumped.status().ToString();
            }
          }
          listener.Poll();
          ++lc.net_polls;
          if (!engine.channel1()->empty() && !engine.channel2()->empty()) {
            break;
          }
          if (i >= options_.max_wait_polls) {
            rep.gate_error = "upload frames never arrived";
          }
        }
      }
      if (!rep.gate_error.empty()) {
        tracer->Close(step_span);
        break;
      }
      ++rep.attempted;
      const Status st = EngineStep(&engine, t + 1, step_span, tracer, &lc);
      tracer->Close(step_span);
      const double ms = SecondsBetween(step_start, NowNs()) * 1e3;
      rep.step_ms.push_back(ms);
      rep.iter_ms.push_back(ms);
      if (!st.ok()) {
        ++rep.failed;
        rep.gate_error = "engine step failed: " + st.ToString();
      }
    }
    rep.loop_s = SecondsBetween(loop_start, NowNs());

    Fingerprint fp;
    MixEngine(engine, &fp);
    rep.fingerprint = fp.hash;
    FillResults(engine, &rep);
    for (SocketOwnerClient* owner : owners) {
      lc.owner_frames += owner->owner().frames_sent();
      lc.owner_rows += owner->owner().rows_sent();
      lc.owner_bytes += owner->local_channel().bytes_pushed();
      lc.owner_backpressure += owner->local_channel().push_rejects();
    }
    lc.net_frames_delivered = listener.frames_delivered();
    lc.net_frames_rejected = listener.frames_rejected();
    for (const ConnectionStats& c : listener.Stats()) {
      lc.net_bytes_received += c.bytes_received;
    }
    if (tracer->enabled()) AddTraceTotals(*engine.proto(), &lc);
    return rep;
  }

  /// The engine fed over TCP must equal an in-process replay of the same
  /// stream (the bench_owner_storm check).
  std::string ReferenceGate(uint64_t fingerprint) override {
    SynchronousDeployment ref(config_);
    const Status st = ref.Run(stream_.t1, stream_.t2);
    if (!st.ok()) return "in-process replay failed: " + st.ToString();
    Fingerprint fp;
    MixEngine(ref.engine(), &fp);
    if (fp.hash != fingerprint) {
      return "TCP engine fingerprint differs from the in-process replay";
    }
    return "";
  }

 private:
  IncShrinkConfig config_;
  GeneratedWorkload stream_;
  SocketDeployment::Options options_;
};

// ---------------------------------------------------------------------------
// fleet_zipf: a priority-scheduled multi-tenant fleet
// ---------------------------------------------------------------------------

class FleetWorkload : public Workload {
 public:
  FleetWorkload(const ZipfFleetParams& params, double batch_scale)
      : streams_(GenerateZipfFleetWorkloads(params)) {
    const Strategy kMix[] = {Strategy::kDpTimer, Strategy::kDpAnt,
                             Strategy::kEp};
    for (size_t i = 0; i < streams_.size(); ++i) {
      DeploymentFleet::TenantSpec spec;
      spec.name = "zipf#" + std::to_string(i);
      spec.config = TpcDsConfig(batch_scale, kMix[i % 3]);
      spec.config.sla_weight = i == 0 ? 2 : 1;
      spec.workload = &streams_[i];
      specs_.push_back(std::move(spec));
      total_steps_ += streams_[i].steps();
    }
    options_.root_seed = 1729;
    // One worker. With two, the pool's per-round wake-ups made round latency
    // spread by 11-25% between runs on a shared 4-vCPU VM, for no throughput
    // gain at this size (1784 vs 1738 tenant-steps/s).
    options_.num_threads = 1;
    options_.owner_lead = 4;
    options_.coalesce_sorts = true;
    options_.scheduler.enabled = true;
    options_.scheduler.services_per_round = 4;
  }

  Result<double> SetupOnly() override {
    const int64_t t0 = NowNs();
    DeploymentFleet fleet(specs_, options_);
    return SecondsBetween(t0, NowNs());
  }

  RepResult Run(Tracer* tracer) override {
    RepResult rep;
    const int64_t t0 = NowNs();
    DeploymentFleet fleet(specs_, options_);
    rep.setup_s = SecondsBetween(t0, NowNs());
    // Owners push every round, so every round services at least one tenant
    // step: there are at most as many rounds as stream steps.
    tracer->Reserve(total_steps_ + 64);
    rep.step_ms.reserve(total_steps_);
    rep.iter_ms.reserve(total_steps_);

    const int64_t loop_start = NowNs();
    for (uint64_t round = 1;; ++round) {
      const int64_t round_start = NowNs();
      size_t live = 0;
      {
        ScopedSpan span(tracer, Layer::kFleet, round);
        live = fleet.StepAll();
      }
      if (live == 0) break;
      const double ms = SecondsBetween(round_start, NowNs()) * 1e3;
      rep.step_ms.push_back(ms);
      rep.iter_ms.push_back(ms);
    }
    rep.loop_s = SecondsBetween(loop_start, NowNs());

    const DeploymentFleet::FleetStats stats = fleet.AggregateStats();
    rep.steps = stats.engine_steps;
    rep.attempted = stats.engine_steps + stats.upload_frames;
    if (stats.engine_steps != total_steps_) {
      rep.gate_error = "fleet ran " + std::to_string(stats.engine_steps) +
                       " engine steps for " + std::to_string(total_steps_) +
                       " stream steps";
    }
    Fingerprint fp;
    LayerCounts& lc = rep.layers;
    for (size_t i = 0; i < fleet.num_tenants(); ++i) {
      MixEngine(fleet.engine(i), &fp);
      const RunSummary s = fleet.TenantSummary(i);
      rep.rel_error += s.OverallRelativeError();
      rep.view_mb += s.final_view_mb;
      lc.owner_frames += fleet.owner1(i).frames_sent() +
                         fleet.owner2(i).frames_sent();
      lc.owner_rows += fleet.owner1(i).rows_sent() +
                       fleet.owner2(i).rows_sent();
      lc.fleet_gap_p99 =
          std::max(lc.fleet_gap_p99, stats.tenant_service[i].gap_p99);
    }
    for (const std::vector<uint32_t>& served : fleet.schedule_log()) {
      for (const uint32_t i : served) fp.Mix(i);
      fp.Mix(UINT64_MAX);
    }
    rep.fingerprint = fp.hash;
    rep.rel_error /= static_cast<double>(fleet.num_tenants());
    lc.owner_backpressure = stats.upload_backpressure;
    lc.fleet_rounds = stats.rounds;
    lc.fleet_fused_jobs = stats.fused_sort_jobs;
    lc.fleet_fused_submissions = stats.fused_sort_submissions;
    lc.fleet_max_queue_depth = stats.max_queue_depth;
    lc.fleet_jain = stats.jain_fairness;
    return rep;
  }

 private:
  std::vector<GeneratedWorkload> streams_;
  std::vector<DeploymentFleet::TenantSpec> specs_;
  DeploymentFleet::Options options_;
  uint64_t total_steps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke) {
  if (name == "q1_timer") {
    const double scale = smoke ? 1 : 4;
    InProcessSpec spec;
    spec.config = TpcDsConfig(scale, Strategy::kDpTimer);
    spec.stream = TpcDsStream(smoke ? 120 : 1440, scale, DeriveSeed(seed, 1));
    return std::make_unique<InProcessWorkload>(std::move(spec), 0);
  }
  if (name == "q2_ant_shuffle") {
    InProcessSpec spec;
    spec.config = DefaultCpdbConfig();
    spec.config.strategy = Strategy::kDpAnt;
    spec.config.sort_algorithm = SortAlgorithm::kShuffleSort;
    CpdbParams p;
    p.steps = smoke ? 64 : 1440;
    p.seed = DeriveSeed(seed, 2);
    spec.stream = GenerateCpdb(p);
    spec.checkpoint_every = 64;
    return std::make_unique<InProcessWorkload>(std::move(spec), 0);
  }
  if (name == "q1_reads") {
    const double scale = smoke ? 1 : 4;
    InProcessSpec spec;
    spec.config = TpcDsConfig(scale, Strategy::kDpTimer);
    spec.stream = TpcDsStream(smoke ? 60 : 360, scale, DeriveSeed(seed, 3));
    spec.queries_per_step = smoke ? 8 : 128;
    spec.partition_every = 60;
    return std::make_unique<InProcessWorkload>(std::move(spec),
                                               DeriveSeed(seed, 4));
  }
  if (name == "fleet_zipf") {
    ZipfFleetParams p;
    p.num_tenants = 8;
    p.s = 1.1;
    p.steps = smoke ? 40 : 360;
    p.mean_scale = smoke ? 1 : 2;
    p.seed = DeriveSeed(seed, 5);
    return std::make_unique<FleetWorkload>(p, p.mean_scale);
  }
  if (name == "ingest_tcp") {
    const double scale = smoke ? 4 : 32;
    return std::make_unique<IngestTcpWorkload>(
        TpcDsConfig(scale, Strategy::kOtm),
        TpcDsStream(smoke ? 240 : 5760, scale, DeriveSeed(seed, 6)));
  }
  return nullptr;
}

}  // namespace incshrink::e2e
