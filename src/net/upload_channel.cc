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

template <class A>
void Visit(A& a, FieldRef<A, UploadChannel> channel, uint32_t tag) {
  a.BeginSection(tag);
  VisitList(a, channel.queue_, [&](auto& frame) { a.Bytes(frame); });
  a.U64(channel.frames_pushed_);
  a.U64(channel.frames_popped_);
  a.U64(channel.push_rejects_);
  a.U64(channel.bytes_pushed_);
  a.U64(channel.max_depth_);
  a.EndSection();
  a.Expect("upload channel backlog");
  const size_t depth = channel.queue_.size();
  a.Check(depth <= channel.capacity_,
          "snapshot backlog exceeds this channel's capacity");
  a.Check(channel.frames_popped_ + depth == channel.frames_pushed_,
          "snapshot channel counters inconsistent with its backlog");
  a.Check(channel.max_depth_ <= channel.capacity_ &&
              depth <= channel.max_depth_,
          "snapshot channel high-water mark inconsistent");
}

template void Visit(CheckpointWriter&, const UploadChannel&, uint32_t);
template void Visit(CheckpointReader&, UploadChannel&, uint32_t);

}  // namespace incshrink
