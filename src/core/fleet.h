#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/workload/generators.h"

namespace incshrink {

/// Protocol seed of tenant `i` in a fleet rooted at `root_seed`: a
/// splitmix64 substream, so tenants are statistically independent yet every
/// tenant's engine can be reconstructed standalone (the equivalence tests
/// rely on this being public and stable).
uint64_t DeriveTenantSeed(uint64_t root_seed, size_t tenant_index);

/// \brief A multi-tenant deployment fleet: N fully independent IncShrink
/// deployments (distinct view definitions, update strategies and streams)
/// served side by side, the shape Shrinkwrap/DP-Sync frame the server side
/// as — one shared service answering many DP-protected instances.
///
/// Tenants never share protocol state: each owns its Engine, owner clients,
/// upload channels, parties, accountant and RNG substream, so stepping them
/// concurrently is observationally identical to stepping them one at a
/// time. The fleet's only cross-tenant artifacts are aggregate throughput
/// counters and the (public) service schedule.
///
/// One round loop: every live tenant's owners push up to the configured
/// lead (arrivals are exogenous), then the round's served tenants each get
/// one engine step. Two disciplines choose who is served:
///
///  * **Lockstep sweep** (`scheduler.enabled == false`, the default, and
///    the benchmarking cadence): every tenant with queued frames is served,
///    and schedule_log() stays empty.
///
///  * **Deterministic priority scheduler** (`scheduler.enabled == true`,
///    the traffic-serving cadence): *engine service* is rationed. Each
///    round the fleet computes a public priority key per backlogged
///    tenant,
///
///        key(i) = sla_weight_i * (depth_weight * queue_depth_i + urgency_i)
///                 + aging_weight * age_i,
///
///    where urgency_i = max(0, H - StepsToNextPublicRelease(i)) pulls
///    tenants whose next publicly scheduled DP release (timer fire / cache
///    flush) is near, and age_i counts backlogged rounds since tenant i was
///    last serviced. The top `services_per_round` tenants by the fixed
///    total order (key descending, tenant id ascending) receive an engine
///    step; everyone else ages. Every input is public — queue depths,
///    clocks, config weights — so the schedule is a function of public
///    state only and can never leak secret cache contents
///    (tests/oblivious_invariants_test.cc), and it is computed serially
///    before any worker runs, so it is bit-identical at any thread count.
///
///    Starvation-freedom: base priorities are bounded (depths by channel
///    capacity, urgency by H, weights by config), while age grows
///    unboundedly, one unit per backlogged round. A continuously backlogged
///    tenant is therefore serviced within StarvationBoundRounds() rounds of
///    its previous service — see the proof sketch on that accessor.
///
///    With uniform weights and services_per_round >= the tenant count (or
///    0 = "all"), every backlogged tenant is selected every round and the
///    scheduler reproduces the lockstep sweep bit for bit
///    (tests/fleet_scheduler_test.cc).
class DeploymentFleet {
 public:
  struct TenantSpec {
    std::string name;
    /// Per-tenant deployment config. `config.seed` is *ignored*; the fleet
    /// overrides it with DeriveTenantSeed(root_seed, index).
    /// `config.sla_weight` is the tenant's scheduling weight.
    IncShrinkConfig config;
    /// Non-owning: the stream must outlive the fleet. Streams may be shared
    /// between tenants (each tenant still runs its own noise realization).
    const GeneratedWorkload* workload = nullptr;
  };

  /// Knobs of the deterministic priority scheduler. All fields are public
  /// constants; none may ever be derived from secret state.
  struct SchedulerOptions {
    /// Off (default): the lockstep sweep serves every backlogged tenant.
    bool enabled = false;
    /// B: engine services granted per round. 0 = every backlogged tenant
    /// (with uniform weights this reproduces the lockstep sweep exactly).
    uint32_t services_per_round = 0;
    /// A: priority gained per backlogged-but-unserviced round. Must be
    /// >= 1 — aging is what guarantees starvation-freedom; larger values
    /// tighten the bound (see StarvationBoundRounds).
    uint32_t aging_weight = 1;
    /// Priority per queued upload frame (scaled by the tenant's
    /// sla_weight).
    uint32_t depth_weight = 1;
    /// H: deadline look-ahead horizon. A tenant whose next public DP
    /// release is d <= H engine steps away gains H - d priority (scaled by
    /// sla_weight); releases further out contribute nothing.
    uint32_t deadline_horizon = 16;
  };

  struct Options {
    uint64_t root_seed = 42;
    int num_threads = 0;  ///< 0 = INCSHRINK_THREADS / hardware concurrency
    /// How many steps tenants' owners may run ahead of their engines. 0
    /// (the default) is lockstep: one frame pair produced and drained per
    /// round — the pre-transport fleet cadence, bit for bit. Leads are
    /// additionally bounded by the channel capacity (public backpressure).
    uint32_t owner_lead = 0;
    /// Cross-tenant sort coalescing: when set, every round splits tenant
    /// steps into BeginStep (plan) / FinishStep (commit) phases and fuses
    /// all tenants' fired cache sorts into one ObliviousSortBatch
    /// submission between them, so same-shaped sorting networks advance in
    /// shared layer rounds on the fleet pool instead of serializing tenant
    /// by tenant. Scheduling only: every tenant's protocol stream is
    /// untouched (jobs run on pairwise-distinct protocols), so summaries
    /// and transcripts are bit-identical to the unfused fleet at any
    /// thread count (tests/batched_oblivious_test.cc). Composes with the
    /// priority scheduler: the fused submission spans whichever tenants
    /// were selected this round.
    bool coalesce_sorts = false;
    /// `oblivious_batch_min_layer` of the fused cross-tenant submissions.
    uint32_t batch_min_layer = 128;
    /// Deterministic deadline/priority service discipline (see class
    /// comment). Default-constructed = disabled = the legacy sweep.
    SchedulerOptions scheduler{};
  };

  DeploymentFleet(std::vector<TenantSpec> tenants, const Options& options);

  /// Advances the fleet by one round (see class comment for the two round
  /// disciplines), concurrently across the pool. Returns how many tenants
  /// were live this round (0 == the whole fleet is drained).
  size_t StepAll();

  /// Steps until every tenant has consumed and drained its stream.
  void RunAll();

  bool done() const;
  size_t num_tenants() const { return tenants_.size(); }
  const TenantSpec& tenant(size_t i) const { return tenants_[i]; }
  const Engine& engine(size_t i) const { return *engines_[i]; }
  const OwnerClient& owner1(size_t i) const { return *owners1_[i]; }
  const OwnerClient& owner2(size_t i) const { return *owners2_[i]; }
  /// Frames queued but not yet drained by tenant `i`'s engine.
  size_t QueueDepth(size_t i) const { return engines_[i]->queue_depth(); }
  uint64_t tenant_seed(size_t i) const;
  RunSummary TenantSummary(size_t i) const { return engines_[i]->Summary(); }

  /// Serializes tenant `i` — its engine (with channel backlogs), both
  /// owners, and the fleet-side scheduling state (stream cursor, age,
  /// service history) — into one ICKP snapshot. Together with RestoreTenant
  /// this is live tenant migration: a tenant checkpointed out of one fleet
  /// resumes bit-identically inside another fleet built from the same specs
  /// (worker budgets may differ — scheduling knobs are excluded from the
  /// config fingerprint).
  Result<std::vector<uint8_t>> CheckpointTenant(size_t i);

  /// Restores a CheckpointTenant blob into slot `i`, whose spec must match
  /// the blob's config fingerprint. Atomic: a malformed or mismatched
  /// snapshot is rejected with a Status and the tenant keeps running on its
  /// prior state.
  Status RestoreTenant(size_t i, std::span<const uint8_t> snapshot);

  /// The public priority key of tenant `i` for the *next* round, exactly as
  /// the scheduler would compute it now. Exposed for tests and benches; a
  /// pure function of public state (queue depth, engine clock, config
  /// weights, age counter).
  uint64_t PriorityKey(size_t i) const;

  /// Upper bound, in rounds, on how long a *continuously backlogged*
  /// tenant can wait between engine services under the priority scheduler:
  ///
  ///     D + ceil((N - 1) / B) + 1,   D = floor(Pmax / A),
  ///
  /// where Pmax bounds every tenant's base (age-free) priority —
  /// sla_weight * (depth_weight * channel_capacity + deadline_horizon) —
  /// A is the aging weight and B the per-round service budget. Sketch: a
  /// tenant j can outrank an aged tenant i only while
  /// A * (age_i - age_j) <= Pmax, i.e. only if j's last service was within
  /// D rounds of i's; once serviced later than that, j never outranks i
  /// again. So after D rounds the set of possible over-rankers (at most
  /// N - 1 tenants) only shrinks — every round i is passed over, all B
  /// serviced tenants leave it permanently — and it empties within
  /// ceil((N - 1) / B) further rounds. Property-tested under adversarial
  /// weight/depth patterns in tests/fleet_scheduler_test.cc. Returns 1 when
  /// the scheduler is disabled (lockstep services every live tenant every
  /// round).
  uint64_t StarvationBoundRounds() const;

  /// Per-round service schedule: schedule_log()[r] lists the tenants
  /// granted an engine step in round r, in service (priority) order.
  /// Recorded only while the priority scheduler is enabled. Public by
  /// construction — equal-shaped fleets with different secret contents log
  /// identical schedules (tests/oblivious_invariants_test.cc).
  const std::vector<std::vector<uint32_t>>& schedule_log() const {
    return schedule_log_;
  }

  /// Fleet-wide work counters (simulated protocol time, not wall time —
  /// wall-clock throughput is measured by bench_fleet_scaling around
  /// RunAll, outside the deterministic core).
  struct TenantServiceStats {
    uint64_t services = 0;  ///< engine steps granted to this tenant
    /// Nearest-rank percentiles and maximum of the tenant's service
    /// latency: rounds elapsed between consecutive engine services (1 =
    /// serviced every round, as in lockstep).
    uint64_t gap_p50 = 0;
    uint64_t gap_p95 = 0;
    uint64_t gap_p99 = 0;
    uint64_t gap_max = 0;
  };
  struct FleetStats {
    uint64_t rounds = 0;        ///< StepAll invocations so far
    uint64_t engine_steps = 0;  ///< total tenant-steps executed
    uint64_t upload_frames = 0;       ///< frames pushed across all channels
    uint64_t upload_backpressure = 0; ///< refused pushes (channels full)
    /// Deepest any channel ever got — the true high-water mark, tracked at
    /// push time inside UploadChannel (never sampled at round boundaries,
    /// which would miss intra-round peaks under an owner lead).
    uint64_t max_queue_depth = 0;
    uint64_t fused_sort_jobs = 0;        ///< tenant sorts run coalesced
    uint64_t fused_sort_submissions = 0; ///< cross-tenant batch submissions
    double simulated_mpc_seconds = 0;
    double simulated_query_seconds = 0;
    /// Per-tenant service-latency stats, indexed like the tenant specs.
    std::vector<TenantServiceStats> tenant_service;
    /// Jain fairness index of weighted service counts
    /// (services_i / sla_weight_i): 1.0 = perfectly weight-proportional
    /// service, 1/N = one tenant received everything.
    double jain_fairness = 1.0;
  };
  FleetStats AggregateStats() const;

  int num_threads() const { return pool_.num_threads(); }

 private:
  /// Owner phase of tenant `i`: push frames up to the configured lead over
  /// the engine's clock (both round disciplines run exactly this).
  void RunOwnerPhase(size_t i);

  /// Engine phase for the round's `serve` set (tenant indices): plain
  /// Step(), or the BeginStep / fused cross-tenant sort / FinishStep split
  /// when `coalesce_sorts` is set. Shared by both round disciplines.
  void ServiceTenants(const std::vector<size_t>& serve);

  /// Service-latency bookkeeping for a tenant granted an engine step in the
  /// current round.
  void RecordService(size_t i);

  std::vector<TenantSpec> tenants_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<OwnerClient>> owners1_;
  std::vector<std::unique_ptr<OwnerClient>> owners2_;
  std::vector<uint64_t> cursor_;  ///< next stream index per tenant's owners
  uint32_t owner_lead_;
  bool coalesce_sorts_;
  uint32_t batch_min_layer_;
  SchedulerOptions scheduler_;
  /// Backlogged-but-unserviced rounds per tenant (scheduler aging term).
  std::vector<uint64_t> age_;
  std::vector<uint64_t> services_;            ///< engine steps per tenant
  std::vector<uint64_t> last_service_round_;  ///< 0 = never serviced
  std::vector<std::vector<uint64_t>> service_gaps_;  ///< rounds between
  std::vector<std::vector<uint32_t>> schedule_log_;
  uint64_t rounds_ = 0;
  uint64_t fused_sort_jobs_ = 0;
  uint64_t fused_sort_submissions_ = 0;
  ThreadPool pool_;
};

}  // namespace incshrink
