#include "src/net/upload_channel.h"

#include "src/common/logging.h"

namespace incshrink {

UploadChannel::UploadChannel(size_t capacity) : capacity_(capacity) {
  INCSHRINK_CHECK_GE(capacity_, 1u);
}

bool UploadChannel::TryPush(std::vector<uint8_t> frame) {
  if (full()) {
    ++push_rejects_;
    return false;
  }
  ++frames_pushed_;
  bytes_pushed_ += frame.size();
  queue_.push_back(std::move(frame));
  if (queue_.size() > max_depth_) max_depth_ = queue_.size();
  return true;
}

Status UploadChannel::Restore(std::vector<std::vector<uint8_t>> frames,
                              const CounterState& counters) {
  if (frames.size() > capacity_) {
    return Status::InvalidArgument(
        "snapshot backlog exceeds this channel's capacity");
  }
  if (counters.frames_popped + frames.size() != counters.frames_pushed) {
    return Status::InvalidArgument(
        "snapshot channel counters inconsistent with its backlog");
  }
  if (counters.max_depth > capacity_ || frames.size() > counters.max_depth) {
    return Status::InvalidArgument(
        "snapshot channel high-water mark inconsistent");
  }
  queue_.assign(std::make_move_iterator(frames.begin()),
                std::make_move_iterator(frames.end()));
  frames_pushed_ = counters.frames_pushed;
  frames_popped_ = counters.frames_popped;
  push_rejects_ = counters.push_rejects;
  bytes_pushed_ = counters.bytes_pushed;
  max_depth_ = static_cast<size_t>(counters.max_depth);
  return Status::OK();
}

bool UploadChannel::TryPop(std::vector<uint8_t>* frame) {
  if (queue_.empty()) return false;
  *frame = std::move(queue_.front());
  queue_.pop_front();
  ++frames_popped_;
  return true;
}

const std::vector<uint8_t>& UploadChannel::Peek(size_t i) const {
  INCSHRINK_CHECK_LT(i, queue_.size());
  return queue_[i];
}

}  // namespace incshrink
