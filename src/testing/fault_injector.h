#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/core/owner_client.h"
#include "src/relational/growing_table.h"

namespace incshrink {

/// \brief Deterministic fault injection for the crash-recovery suite.
///
/// Every fault — where a process dies, where a write tears, which bit a
/// disk flips, how long a socket stays dark — is drawn from one seeded Rng,
/// so a failing fault schedule is reproducible from its seed alone. The
/// injector only *plans and corrupts*; it never touches live engine state
/// (crashes are simulated by dropping the live object and restoring a
/// snapshot into a fresh one, exactly what a real restart does).
enum class FaultKind : uint8_t {
  kKillAtStep,  ///< process dies after completing engine step `step`
  kTornWrite,   ///< snapshot persisted as a strict prefix of `param` bytes
  kBitFlip,     ///< bit `param` of the persisted snapshot flips
  kSocketDrop,  ///< owner link drops; reconnect after `param` poll rounds
};

struct FaultEvent {
  FaultKind kind = FaultKind::kKillAtStep;
  /// kKillAtStep: the 1-based engine step to die after. Others: unused.
  uint64_t step = 0;
  /// kTornWrite: surviving prefix length. kBitFlip: absolute bit index.
  /// kSocketDrop: outage length in poll rounds.
  uint64_t param = 0;
};

/// A reproducible schedule of faults: the seed it was drawn from plus the
/// ordered events. Tests log the seed on failure so any schedule replays.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultEvent> events;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed), rng_(seed) {}

  uint64_t seed() const { return seed_; }

  /// A uniform kill step in [1, horizon] (horizon >= 1).
  uint64_t PickStep(uint64_t horizon);

  /// A strict prefix of `blob` ending at `len` (< blob.size()).
  static std::vector<uint8_t> TruncateAt(const std::vector<uint8_t>& blob,
                                         size_t len);
  /// A torn write: a uniformly chosen strict prefix (possibly empty).
  std::vector<uint8_t> TornWrite(const std::vector<uint8_t>& blob);

  /// `blob` with absolute bit `bit_index` flipped.
  static std::vector<uint8_t> FlipBit(const std::vector<uint8_t>& blob,
                                      uint64_t bit_index);

  /// Draws a fault schedule: `kills` kill events over [1, horizon] plus
  /// `corruptions` torn-write/bit-flip events (parameters resolved against
  /// `snapshot_bytes`) plus `drops` socket outages of at most
  /// `max_drop_rounds` rounds. Event order is the draw order — fixed by
  /// the seed.
  FaultPlan MakePlan(uint64_t horizon, size_t kills, size_t corruptions,
                     uint64_t snapshot_bytes, size_t drops,
                     uint64_t max_drop_rounds);

 private:
  uint64_t seed_;
  Rng rng_;
};

/// Crash-restart harness: runs a SynchronousDeployment over the aligned
/// arrival streams, "killing the process" right after engine step
/// `kill_step` — the snapshot taken there is the only thing that survives —
/// then restores it into a freshly constructed deployment and finishes the
/// remaining steps there. Returns the restored deployment so the caller can
/// compare its summaries/transcripts/goldens against an uninterrupted run
/// (they must be bit-identical; tests/checkpoint_restore_test.cc pins
/// this for every DP strategy at 1/2/8 threads).
Result<std::unique_ptr<SynchronousDeployment>> RunWithCrashAtStep(
    const IncShrinkConfig& config,
    const std::vector<std::vector<LogicalRecord>>& arrivals1,
    const std::vector<std::vector<LogicalRecord>>& arrivals2,
    uint64_t kill_step);

}  // namespace incshrink
