#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/status.h"
#include "src/storage/checkpoint.h"

namespace incshrink {

/// \brief Bounded, deterministic, in-process byte-frame channel — the
/// transport between a data owner and the two untrusted servers.
///
/// The interface is deliberately socket-shaped: opaque byte frames go in,
/// opaque byte frames come out, FIFO, with a public bounded buffer. Nothing
/// in this layer interprets frame contents, draws randomness, or consults
/// the clock, so a future TCP transport can replace the deque without
/// touching the engine — and the channel itself can never perturb a
/// deterministic run (tools/check_no_hidden_entropy.sh statically enforces
/// that src/net/ stays entropy-free).
///
/// Backpressure is public by design: `TryPush` refusing a frame reveals only
/// the queue depth, which is already a deterministic function of public
/// upload-policy schedules and the engine's drain cadence
/// (`max_batches_per_step`), never of record contents.
///
/// Threading: a channel is owned by one owner/engine pair and must be
/// accessed by at most one thread at a time (the fleet steps a tenant's
/// owners and engine inside a single task). Under that discipline the
/// push/pop sequence — and therefore every observable — is a pure function
/// of the driver's schedule.
class UploadChannel {
 public:
  /// \param capacity maximum queued frames; must be >= 1.
  explicit UploadChannel(size_t capacity);

  /// Enqueues a frame. Returns false — leaving the channel unchanged and
  /// counting a public backpressure event — when the buffer is full.
  bool TryPush(std::vector<uint8_t> frame);

  /// Dequeues the oldest frame into *frame. Returns false when empty.
  bool TryPop(std::vector<uint8_t>* frame);

  /// The i-th queued frame (0 = oldest), left in place. Lets a consumer
  /// validate every frame it is about to drain before popping any of them.
  /// Requires i < depth().
  const std::vector<uint8_t>& Peek(size_t i) const;

  /// Records a public backpressure event observed by a sender that checked
  /// capacity *before* constructing its frame (frame construction has side
  /// effects — RNG draws, queue mutation — so owners probe first). Counts
  /// alongside the rejects TryPush records itself.
  void NoteBackpressure() { ++push_rejects_; }

  size_t depth() const { return queue_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return queue_.empty(); }
  bool full() const { return queue_.size() >= capacity_; }

  /// Public depth snapshot — the transport-side input to fleet scheduling
  /// (priorities must be computable from transport counters alone, never
  /// from frame contents). `high_water` is tracked at push time inside
  /// TryPush, so intra-round peaks under an owner lead are captured even
  /// when snapshots are only taken at round boundaries
  /// (tests/upload_channel_test.cc pins this against regressing to
  /// round-end sampling).
  struct DepthSnapshot {
    size_t depth = 0;       ///< frames currently queued
    size_t high_water = 0;  ///< lifetime peak depth, push-time accurate
  };
  DepthSnapshot Snapshot() const { return {queue_.size(), max_depth_}; }

  /// Lifetime counters (public transport statistics).
  uint64_t frames_pushed() const { return frames_pushed_; }
  uint64_t frames_popped() const { return frames_popped_; }
  uint64_t push_rejects() const { return push_rejects_; }
  uint64_t bytes_pushed() const { return bytes_pushed_; }
  /// High-water mark of the queue depth over the channel's lifetime.
  size_t max_depth() const { return max_depth_; }

  /// Checkpoint field order (src/storage/checkpoint.h), as section `tag`: the
  /// queued frames, oldest first (public transport state), then the lifetime
  /// counters. Restore into a scratch channel of the deployment's capacity,
  /// which rejects a larger backlog and counters that could not have
  /// produced the backlog.
  template <class A>
  friend void Visit(A& a, FieldRef<A, UploadChannel> channel, uint32_t tag);

 private:
  size_t capacity_;
  std::deque<std::vector<uint8_t>> queue_;
  uint64_t frames_pushed_ = 0;
  uint64_t frames_popped_ = 0;
  uint64_t push_rejects_ = 0;
  uint64_t bytes_pushed_ = 0;
  size_t max_depth_ = 0;
};

}  // namespace incshrink
