#include "src/common/bytes.h"

namespace incshrink {

uint64_t Fnv1a64(const uint8_t* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime64;
  }
  return h;
}

MatrixFit CheckMatrixFit(uint64_t width, uint64_t rows, size_t cell_bytes,
                         size_t available, uint64_t* cells) {
  if (width == 0 && rows != 0) return MatrixFit::kZeroWidth;
  const uint64_t n = width * rows;
  if (width != 0 && n / width != rows) return MatrixFit::kOverflow;
  if (n > available / cell_bytes) return MatrixFit::kTooLarge;
  *cells = n;
  return MatrixFit::kOk;
}

std::span<const uint8_t> ByteReader::Bytes() {
  const uint64_t len = U64();
  if (!Fits(len, 1)) return {};
  return {Take(static_cast<size_t>(len)), static_cast<size_t>(len)};
}

void ByteReader::U32Block(uint32_t* out, size_t n) {
  if (!Fits(n, 4)) return;
  const uint8_t* p = Take(n * 4);
  for (size_t i = 0; i < n; ++i) out[i] = LoadU32(p + 4 * i);
}

bool ByteReader::Fits(uint64_t count, size_t min_bytes) {
  if (ok_ && count <= remaining() / min_bytes) return true;
  ok_ = false;
  return false;
}

void ByteReader::BeginScope(uint64_t len) {
  if (!ok_ || len > remaining()) {
    ok_ = false;
    return;
  }
  ends_.push_back(pos_ + static_cast<size_t>(len));
}

void ByteReader::EndScope() {
  if (!ok_) return;
  if (ends_.empty() || pos_ != ends_.back()) {
    ok_ = false;
    return;
  }
  ends_.pop_back();
}

}  // namespace incshrink
