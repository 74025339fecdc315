#include "src/net/frame_codec.h"

#include <cstring>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/logging.h"

namespace incshrink {

namespace {

constexpr uint8_t kHelloMagic[4] = {'I', 'U', 'H', '1'};

}  // namespace

std::vector<uint8_t> EncodeHello(uint32_t channel_id) {
  ByteWriter w;
  w.Reserve(kHelloBytes);
  w.Raw(kHelloMagic);
  w.U32(channel_id);
  return w.Take();
}

void AppendEnvelope(std::vector<uint8_t>* out, uint64_t seq,
                    const std::vector<uint8_t>& payload) {
  INCSHRINK_CHECK(!payload.empty());
  INCSHRINK_CHECK_LE(payload.size(), UINT32_MAX);
  ByteWriter w(std::move(*out));
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U64(seq);
  w.Raw(payload);
  *out = w.Take();
}

void FrameAssembler::Feed(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void FrameAssembler::Compact() {
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

Result<bool> FrameAssembler::TakeHello(uint32_t* channel_id) {
  if (!poison_.ok()) return poison_;
  if (buffered_bytes() < kHelloBytes) return false;
  if (std::memcmp(buf_.data() + pos_, kHelloMagic, 4) != 0) {
    poison_ = Status::InvalidArgument("bad hello magic");
    return poison_;
  }
  *channel_id = LoadU32(buf_.data() + pos_ + 4);
  pos_ += kHelloBytes;
  Compact();
  return true;
}

Result<bool> FrameAssembler::TakeFrame(WireFrame* out) {
  if (!poison_.ok()) return poison_;
  if (buffered_bytes() < kEnvelopeBytes) return false;
  const uint8_t* head = buf_.data() + pos_;
  const uint32_t payload_len = LoadU32(head);
  // Validate the envelope before waiting for (or allocating) the payload: a
  // hostile length must neither OOM the server nor stall the stream.
  if (payload_len == 0) {
    poison_ = Status::InvalidArgument("zero-length frame payload");
    return poison_;
  }
  if (payload_len > max_frame_bytes_) {
    poison_ = Status::InvalidArgument("frame payload exceeds size limit");
    return poison_;
  }
  const uint64_t stamp = LoadU64(head + 4);
  if (stamp != next_seq_) {
    poison_ = Status::InvalidArgument("sequence stamp break");
    return poison_;
  }
  if (buffered_bytes() < kEnvelopeBytes + payload_len) return false;
  out->seq = stamp;
  out->payload.assign(head + kEnvelopeBytes,
                      head + kEnvelopeBytes + payload_len);
  pos_ += kEnvelopeBytes + payload_len;
  ++next_seq_;
  Compact();
  return true;
}

}  // namespace incshrink
