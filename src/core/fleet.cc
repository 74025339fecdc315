#include "src/core/fleet.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace incshrink {

namespace {

/// Priority arithmetic saturates far below 2^64 so that the aging term can
/// still be added on top of a saturated base without wrapping — an overflow
/// in the key would silently break the total order (and with it the
/// starvation bound).
constexpr uint64_t kPriorityCap = uint64_t{1} << 62;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a >= kPriorityCap || b >= kPriorityCap || a + b >= kPriorityCap) {
    return kPriorityCap;
  }
  return a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a >= kPriorityCap || b >= kPriorityCap || a > kPriorityCap / b) {
    return kPriorityCap;
  }
  return a * b;
}

}  // namespace

uint64_t DeriveTenantSeed(uint64_t root_seed, size_t tenant_index) {
  // One splitmix64 scramble of (root, index): the same expansion Rng uses
  // for its own state, so adjacent tenant indices yield unrelated streams.
  uint64_t z = root_seed +
               0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(tenant_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

DeploymentFleet::DeploymentFleet(std::vector<TenantSpec> tenants,
                                 const Options& options)
    : tenants_(std::move(tenants)),
      cursor_(tenants_.size(), 0),
      owner_lead_(options.owner_lead),
      coalesce_sorts_(options.coalesce_sorts),
      batch_min_layer_(options.batch_min_layer),
      scheduler_(options.scheduler),
      age_(tenants_.size(), 0),
      services_(tenants_.size(), 0),
      last_service_round_(tenants_.size(), 0),
      service_gaps_(tenants_.size()),
      // Workers beyond the tenant count would only collect idle wakeups
      // every StepAll round.
      pool_(static_cast<int>(std::min<size_t>(
          static_cast<size_t>(ResolveThreadCount(options.num_threads)),
          std::max<size_t>(tenants_.size(), 1)))) {
  INCSHRINK_CHECK_GE(scheduler_.aging_weight, 1u);
  engines_.reserve(tenants_.size());
  owners1_.reserve(tenants_.size());
  owners2_.reserve(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    INCSHRINK_CHECK(tenants_[i].workload != nullptr);
    tenants_[i].config.seed = DeriveTenantSeed(options.root_seed, i);
    engines_.push_back(std::make_unique<Engine>(tenants_[i].config));
    Engine* engine = engines_.back().get();
    owners1_.push_back(std::make_unique<OwnerClient>(
        MakeOwner1(tenants_[i].config, engine->channel1())));
    owners2_.push_back(std::make_unique<OwnerClient>(
        MakeOwner2(tenants_[i].config, engine->channel2())));
  }
}

uint64_t DeploymentFleet::tenant_seed(size_t i) const {
  return tenants_[i].config.seed;
}

bool DeploymentFleet::done() const {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (cursor_[i] < tenants_[i].workload->steps()) return false;
    if (engines_[i]->queue_depth() > 0) return false;
  }
  return true;
}

void DeploymentFleet::RunOwnerPhase(size_t i) {
  const GeneratedWorkload& w = *tenants_[i].workload;
  Engine& engine = *engines_[i];
  const bool join_view = tenants_[i].config.view_kind != ViewKind::kFilter;
  // Owner phase: push frames up to the configured lead over the engine's
  // clock. The owner pair advances atomically (both channels must have
  // room) so the T1/T2 frame streams stay aligned; a full channel is
  // public backpressure and simply retries next round.
  const uint64_t horizon = engine.current_step() + 1 + owner_lead_;
  while (cursor_[i] < w.steps() && cursor_[i] < horizon) {
    const uint64_t t = cursor_[i];
    // T1 leads the pair: its refusal is the recorded backpressure event.
    // The channels always hold equal depths (frames are pushed and
    // drained strictly in pairs), so if T1's push lands, T2's must too.
    if (!owners1_[i]->TryStep(w.t1[t])) break;
    if (join_view) INCSHRINK_CHECK(owners2_[i]->TryStep(w.t2[t]));
    ++cursor_[i];
  }
}

void DeploymentFleet::RecordService(size_t i) {
  ++services_[i];
  service_gaps_[i].push_back(rounds_ - last_service_round_[i]);
  last_service_round_[i] = rounds_;
}

void DeploymentFleet::ServiceTenants(const std::vector<size_t>& serve) {
  if (serve.empty()) return;
  for (const size_t i : serve) RecordService(i);
  if (!coalesce_sorts_) {
    pool_.ParallelFor(serve.size(), [&](size_t k) {
      INCSHRINK_CHECK(engines_[serve[k]]->Step().ok());
    });
    return;
  }
  // Phase split: per-tenant BeginStep (plan) concurrently, then one fused
  // cross-tenant submission — every fired shard sort of every serviced
  // tenant advances through its network in shared layer rounds on the fleet
  // pool. Jobs run on pairwise-distinct protocols (one per tenant shard),
  // so each tenant's randomness stream and cost totals are exactly those of
  // an unfused round. Finally the per-tenant commits, concurrent again.
  std::vector<std::vector<SortJob>> tenant_jobs(serve.size());
  pool_.ParallelFor(serve.size(), [&](size_t k) {
    Engine& engine = *engines_[serve[k]];
    INCSHRINK_CHECK(engine.BeginStep().ok());
    tenant_jobs[k] = engine.TakePendingSortJobs();
  });
  std::vector<SortJob> fused;
  for (std::vector<SortJob>& jobs : tenant_jobs) {
    fused.insert(fused.end(), jobs.begin(), jobs.end());
  }
  if (!fused.empty()) {
    ObliviousSortBatch(fused.data(), fused.size(),
                       BatchExec{&pool_, batch_min_layer_});
    fused_sort_jobs_ += fused.size();
    ++fused_sort_submissions_;
  }
  pool_.ParallelFor(serve.size(), [&](size_t k) {
    INCSHRINK_CHECK(engines_[serve[k]]->FinishStep().ok());
  });
}

uint64_t DeploymentFleet::PriorityKey(size_t i) const {
  const Engine& e = *engines_[i];
  const uint64_t dist = e.StepsToNextPublicRelease();
  const uint64_t h = scheduler_.deadline_horizon;
  const uint64_t urgency = dist >= h ? 0 : h - dist;
  const uint64_t base =
      SatMul(tenants_[i].config.sla_weight,
             SatAdd(SatMul(scheduler_.depth_weight, e.queue_depth()),
                    urgency));
  return SatAdd(base, SatMul(scheduler_.aging_weight, age_[i]));
}

uint64_t DeploymentFleet::StarvationBoundRounds() const {
  if (!scheduler_.enabled) return 1;
  // Pmax: the largest base (age-free) priority any tenant can ever hold —
  // its queue depth is capped by the channel capacity, its urgency by the
  // horizon. See the header comment for the bound's derivation.
  uint64_t pmax = 0;
  for (const TenantSpec& t : tenants_) {
    const uint64_t cap = t.config.upload_channel_capacity;
    pmax = std::max(
        pmax, SatMul(t.config.sla_weight,
                     SatAdd(SatMul(scheduler_.depth_weight, cap),
                            scheduler_.deadline_horizon)));
  }
  const uint64_t n = tenants_.size();
  const uint64_t b =
      scheduler_.services_per_round == 0
          ? n
          : std::min<uint64_t>(scheduler_.services_per_round, n);
  const uint64_t d = pmax / scheduler_.aging_weight;
  return d + (n - 1 + b - 1) / std::max<uint64_t>(b, 1) + 1;
}

size_t DeploymentFleet::StepAll() {
  // The set of tenants that participate in this round depends only on the
  // cursors and queue depths, never on scheduling.
  std::vector<size_t> live;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (cursor_[i] < tenants_[i].workload->steps() ||
        engines_[i]->queue_depth() > 0) {
      live.push_back(i);
    }
  }
  if (live.empty()) return 0;
  ++rounds_;

  // Phase O — exogenous arrivals: every live tenant's owners push this
  // round whether or not the tenant wins engine service (traffic does not
  // wait for the scheduler; the scheduler rations *service*, and unserviced
  // tenants simply accumulate public backlog). Each task touches only one
  // tenant's owners, channels and cursor, so any interleaving yields the
  // same per-tenant state.
  pool_.ParallelFor(live.size(),
                    [&](size_t k) { RunOwnerPhase(live[k]); });

  std::vector<size_t> backlogged;
  for (const size_t i : live) {
    if (engines_[i]->queue_depth() > 0) backlogged.push_back(i);
  }
  // Lockstep: every backlogged tenant steps, in tenant order; a backlogged
  // tenant drains up to max_batches_per_step owner steps in one engine step.
  if (!scheduler_.enabled) {
    ServiceTenants(backlogged);
    return live.size();
  }

  // Selection — serial, before any engine work, from public state only:
  // queue depths, engine clocks, config weights and age counters. Sorting
  // by (key descending, tenant id ascending) is a fixed total order, so the
  // schedule is bit-identical at any thread count.
  std::vector<std::pair<uint64_t, size_t>> order;
  order.reserve(backlogged.size());
  for (const size_t i : backlogged) order.emplace_back(PriorityKey(i), i);
  std::sort(order.begin(), order.end(),
            [](const std::pair<uint64_t, size_t>& a,
               const std::pair<uint64_t, size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  const size_t budget =
      scheduler_.services_per_round == 0
          ? order.size()
          : std::min<size_t>(scheduler_.services_per_round, order.size());
  std::vector<size_t> serve;
  serve.reserve(budget);
  for (size_t k = 0; k < budget; ++k) serve.push_back(order[k].second);

  schedule_log_.emplace_back(serve.begin(), serve.end());
  // Aging: winners reset, every other backlogged tenant moves one round
  // closer to guaranteed service. (Idle tenants neither age nor need to.)
  for (size_t k = 0; k < order.size(); ++k) {
    age_[order[k].second] =
        k < budget ? 0 : SatAdd(age_[order[k].second], 1);
  }

  // Phase E — engine service for the selected set.
  ServiceTenants(serve);
  return live.size();
}

void DeploymentFleet::RunAll() {
  while (StepAll() > 0) {
  }
}

namespace {

// ICKP layout of one migratable tenant: the shared deployment envelope
// (src/core/owner_client.h) with the fleet-side scheduling state as its
// driver section.
constexpr SnapshotEnvelope kTenantEnvelope{
    CheckpointTag('T', 'F', 'G', ' '), "tenant fingerprint",
    "tenant snapshot was taken under a different configuration",
    "embedded tenant engine snapshot",
    "tenant snapshot exceeds checkpoint_max_bytes"};
constexpr uint32_t kTagTenantSched = CheckpointTag('T', 'S', 'C', 'H');

/// TSCH: the tenant's stream cursor, scheduler age, service count, last
/// service round and service-gap history. Restoring rejects a cursor past
/// the `steps` of this fleet's workload.
template <class A>
void VisitSchedule(A& a, FieldRef<A, uint64_t> cursor,
                   FieldRef<A, uint64_t> age, FieldRef<A, uint64_t> services,
                   FieldRef<A, uint64_t> last_service_round,
                   FieldRef<A, std::vector<uint64_t>> gaps, uint64_t steps) {
  a.BeginSection(kTagTenantSched);
  a.U64(cursor);
  a.U64(age);
  a.U64(services);
  a.U64(last_service_round);
  VisitList(a, gaps, [&](auto& gap) { a.U64(gap); });
  a.EndSection();
  a.Expect("tenant scheduling state");
  a.Check(cursor <= steps,
          "tenant snapshot's stream cursor runs past this fleet's workload");
}

}  // namespace

Result<std::vector<uint8_t>> DeploymentFleet::CheckpointTenant(size_t i) {
  if (i >= tenants_.size()) {
    return Status::OutOfRange("tenant index out of range");
  }
  return SaveEnvelope(
      kTenantEnvelope, ConfigFingerprint(tenants_[i].config),
      engines_[i].get(), *owners1_[i], *owners2_[i],
      [&](CheckpointWriter& w) {
        VisitSchedule(w, cursor_[i], age_[i], services_[i],
                      last_service_round_[i], service_gaps_[i],
                      tenants_[i].workload->steps());
      });
}

Status DeploymentFleet::RestoreTenant(size_t i,
                                      std::span<const uint8_t> snapshot) {
  if (i >= tenants_.size()) {
    return Status::OutOfRange("tenant index out of range");
  }
  uint64_t cursor = 0;
  uint64_t age = 0;
  uint64_t services = 0;
  uint64_t last_service_round = 0;
  std::vector<uint64_t> gaps;
  INCSHRINK_RETURN_NOT_OK(RestoreEnvelope(
      kTenantEnvelope, ConfigFingerprint(tenants_[i].config), snapshot,
      engines_[i].get(), owners1_[i].get(), owners2_[i].get(),
      [&](CheckpointReader& r) {
        VisitSchedule(r, cursor, age, services, last_service_round, gaps,
                      tenants_[i].workload->steps());
      }));
  cursor_[i] = cursor;
  age_[i] = age;
  services_[i] = services;
  last_service_round_[i] = last_service_round;
  service_gaps_[i] = std::move(gaps);
  return Status::OK();
}

DeploymentFleet::FleetStats DeploymentFleet::AggregateStats() const {
  FleetStats stats;
  stats.rounds = rounds_;
  stats.fused_sort_jobs = fused_sort_jobs_;
  stats.fused_sort_submissions = fused_sort_submissions_;
  std::vector<double> weighted_service(engines_.size(), 0.0);
  stats.tenant_service.resize(engines_.size());
  for (size_t i = 0; i < engines_.size(); ++i) {
    const RunSummary s = engines_[i]->Summary();
    stats.engine_steps += s.steps;
    stats.simulated_mpc_seconds += s.total_mpc_seconds;
    stats.simulated_query_seconds += s.total_query_seconds;
    for (UploadChannel* ch :
         {engines_[i]->channel1(), engines_[i]->channel2()}) {
      stats.upload_frames += ch->frames_pushed();
      stats.upload_backpressure += ch->push_rejects();
      stats.max_queue_depth =
          std::max<uint64_t>(stats.max_queue_depth, ch->max_depth());
    }
    TenantServiceStats& ts = stats.tenant_service[i];
    ts.services = services_[i];
    ts.gap_p50 = NearestRankPercentile(service_gaps_[i], 50);
    ts.gap_p95 = NearestRankPercentile(service_gaps_[i], 95);
    ts.gap_p99 = NearestRankPercentile(service_gaps_[i], 99);
    for (const uint64_t g : service_gaps_[i]) {
      ts.gap_max = std::max(ts.gap_max, g);
    }
    weighted_service[i] = static_cast<double>(services_[i]) /
                          static_cast<double>(tenants_[i].config.sla_weight);
  }
  stats.jain_fairness = JainFairnessIndex(weighted_service);
  return stats;
}

}  // namespace incshrink
