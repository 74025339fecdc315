#pragma once

#include <cstdint>

#include "src/relational/schema.h"

namespace incshrink {

/// \brief A timestamped logical record of a growing database (paper
/// Section 4.1: D = {u_i}, each u_i a time-stamped insertion).
struct LogicalRecord {
  uint64_t step = 0;  ///< insertion time (upload step)
  Word rid = 0;       ///< globally unique record id
  Word key = 0;       ///< join key
  Word date = 0;      ///< event date (days)
  Word payload = 0;   ///< opaque attribute
};

}  // namespace incshrink
