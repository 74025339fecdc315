#include "src/storage/outsourced_store.h"

#include <algorithm>
#include <cstddef>

#include "src/common/logging.h"

namespace incshrink {

uint64_t OutsourcedTable::AppendBatch(SharedRows batch) {
  INCSHRINK_CHECK_EQ(batch.width(), width_);
  total_rows_ += batch.size();
  batches_.push_back(std::move(batch));
  return steps() - 1;
}

const SharedRows& OutsourcedTable::batch(uint64_t step) const {
  INCSHRINK_CHECK_GE(step, first_retained_);
  INCSHRINK_CHECK_LT(step, steps());
  return batches_[step - first_retained_];
}

SharedRows OutsourcedTable::ConcatRange(uint64_t from, uint64_t to) const {
  SharedRows out(width_);
  if (steps() == 0) return out;
  to = std::min<uint64_t>(to, steps() - 1);
  if (from > to) return out;
  for (uint64_t s = from; s <= to; ++s) out.AppendAll(batch(s));
  return out;
}

SharedRows OutsourcedTable::ConcatAll() const {
  INCSHRINK_CHECK_EQ(first_retained_, 0u);
  if (batches_.empty()) return SharedRows(width_);
  return ConcatRange(0, steps() - 1);
}

void OutsourcedTable::EvictBefore(uint64_t step) {
  INCSHRINK_CHECK_LE(step, steps());
  if (step <= first_retained_) return;
  batches_.erase(batches_.begin(),
                 batches_.begin() + static_cast<std::ptrdiff_t>(
                                        step - first_retained_));
  first_retained_ = step;
}

template <class A>
void Visit(A& a, FieldRef<A, OutsourcedTable> table, uint32_t tag,
           uint64_t steps, uint64_t floor) {
  a.BeginSection(tag);
  a.U64(table.first_retained_);
  a.U64(table.total_rows_);
  uint64_t held = 0;
  VisitList(
      a, table.batches_,
      [&](auto& batch) {
        Visit(a, batch);
        a.Check(batch.width() == table.width_,
                "snapshot store batch has the wrong row width");
        held += batch.size();
      },
      [&](uint64_t count) {
        a.Expect("outsourced store header");
        a.Check(table.first_retained_ == floor,
                "snapshot store's first retained step is not its clock's "
                "floor");
        a.Check(count == steps - floor,
                "snapshot store holds the wrong number of batches");
      });
  a.Check(table.total_rows_ >= held,
          "snapshot store total_rows is below its held rows");
  a.EndSection();
  a.Expect("outsourced store");
}

template void Visit(CheckpointWriter&, const OutsourcedTable&, uint32_t,
                    uint64_t, uint64_t);
template void Visit(CheckpointReader&, OutsourcedTable&, uint32_t, uint64_t,
                    uint64_t);

}  // namespace incshrink
