#pragma once

// Measurement plumbing of the end-to-end benchmark: the wall clock, trace
// spans around the calls into each layer, and the record one repetition of a
// workload fills in. Nothing here is linked into the
// library; the program under test only ever sees generated inputs.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/engine.h"
#include "src/mpc/cost_model.h"

namespace incshrink::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// The modules a span can time. `kStep` is the benchmark's own wrapper
/// around one engine step; every other entry is a layer of the library.
enum class Layer : uint8_t {
  kStep,
  kOwner,              ///< core/owner_client: share, encode, push
  kNet,                ///< net: Pump + Poll until the frames are delivered
  kBegin,              ///< Engine::BeginStep: drain, decode, Transform, plan
  kSort,               ///< oblivious: ObliviousSortBatch of the sync sorts
  kFinish,             ///< Engine::FinishStep: commit, flush, COUNT
  kAnalyst,            ///< Engine::AnswerAdHocQuery
  kCheckpointSave,     ///< storage/checkpoint via Engine::SaveCheckpoint
  kCheckpointRestore,  ///< Engine::RestoreCheckpoint into a cold engine
  kFleet,              ///< DeploymentFleet::StepAll
  kCount,
};

struct Span {
  Layer layer;
  int32_t parent;  ///< index of the enclosing span, -1 for a root
  uint64_t step;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span recorder. Disabled, it records nothing and every call is
/// a branch; enabled, spans go into a vector reserved before the timed loop
/// and are written out only after it.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Reserve(size_t spans) {
    if (enabled_) spans_.reserve(spans);
  }
  int32_t Open(Layer layer, uint64_t step, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{layer, parent, step, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, uint64_t step, int32_t parent = -1)
      : tracer_(tracer), id_(tracer->Open(layer, step, parent)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Work counts of one repetition by layer. A workload fills the layers it
/// runs through and leaves the others at zero. Circuit costs are filled only
/// by traced repetitions (they need Protocol2PC snapshots around each call).
struct LayerCounts {
  uint64_t owner_frames = 0;
  uint64_t owner_rows = 0;
  uint64_t owner_bytes = 0;
  uint64_t owner_backpressure = 0;

  uint64_t net_polls = 0;
  uint64_t net_frames_delivered = 0;
  uint64_t net_frames_rejected = 0;
  uint64_t net_bytes_received = 0;

  CircuitStats begin_cost;
  uint64_t begin_frames_drained = 0;

  uint64_t sort_jobs = 0;
  uint64_t sort_rows = 0;
  CircuitStats sort_cost;

  CircuitStats finish_cost;
  uint64_t finish_flushes = 0;

  uint64_t queries = 0;
  uint64_t query_rows_scanned = 0;
  CircuitStats query_cost;

  uint64_t checkpoint_restores = 0;
  std::vector<uint64_t> checkpoint_blob_bytes;  ///< one entry per save

  uint64_t fleet_rounds = 0;
  uint64_t fleet_fused_jobs = 0;
  uint64_t fleet_fused_submissions = 0;
  uint64_t fleet_max_queue_depth = 0;
  uint64_t fleet_gap_p99 = 0;
  double fleet_jain = 0;

  /// Batch-trace totals by BatchTraceEvent::Kind: ops, AND gates, batches.
  struct Kernel {
    uint64_t ops = 0;
    uint64_t and_gates = 0;
    uint64_t batches = 0;
  };
  Kernel mpc[4];
};

/// Everything one fresh repetition of a workload measured.
struct RepResult {
  double setup_s = 0;
  double loop_s = 0;              ///< wall time of the whole workload loop
  uint64_t steps = 0;             ///< engine steps (tenant-steps in a fleet)
  /// Latency of each step, owner push to FinishStep (of each fleet round).
  std::vector<double> step_ms;
  /// Each loop iteration: the step plus the reads and checkpoints after it.
  /// The iterations partition the loop, so they sum to loop_s.
  std::vector<double> iter_ms;
  double peak_rss_mb = 0;         ///< filled by main() around Run()
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t fingerprint = 0;
  double rel_error = 0;           ///< Table-2 relative error
  double view_mb = 0;             ///< final view size
  std::string gate_error;         ///< first failed correctness gate, if any
  LayerCounts layers;
};

/// One benchmark workload: generated inputs plus the loop that drives the
/// library through its public calls.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one fresh repetition: builds the deployment(s), timed as set-up,
  /// then the closed loop over the whole input.
  virtual RepResult Run(Tracer* tracer) = 0;
  /// Builds and tears down the deployment(s) once; returns set-up seconds.
  virtual Result<double> SetupOnly() = 0;
  /// Checks against an untimed reference run, where the workload has one.
  /// Returns the failure, or an empty string.
  virtual std::string ReferenceGate(uint64_t fingerprint) {
    (void)fingerprint;
    return "";
  }
};

/// Generates the inputs of `name` from `seed`; null for an unknown name.
/// `smoke` shrinks every size so all workloads finish in a few seconds.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke);

}  // namespace incshrink::e2e
