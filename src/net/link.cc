#include "net/link.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/logging.h"

namespace dfi::net {

LinkScheduler::LinkScheduler(std::string name, double bytes_per_ns)
    : name_(std::move(name)),
      ns_per_byte_(1.0 / bytes_per_ns),
      bytes_per_ns_(bytes_per_ns) {
  DFI_CHECK_GT(bytes_per_ns, 0.0);
}

TransferWindow LinkScheduler::Reserve(SimTime ready, uint64_t bytes) {
  double ns_per_byte = ns_per_byte_;
  if (fault_plan_ != nullptr && fault_plan_->active()) {
    const double factor = std::clamp(
        fault_plan_->LinkRateFactor(fault_node_, ready, base_gbps_), 1e-6,
        1.0);
    ns_per_byte /= factor;
  }
  const SimTime duration = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * ns_per_byte));
  busy_time_ += duration;
  total_bytes_ += bytes;

  // First-fit backfill: use the earliest idle gap that fits. Skipped
  // entirely — with identical results — when no gap can fit: every gap
  // ends at or below busy_until_, so ready >= busy_until_ rules them all
  // out, and max_gap_len_ bounds the longest gap from above.
  if (ready < busy_until_ && duration <= max_gap_len_) {
    // Gaps wholly before `ready` cannot serve this reservation (though a
    // lagging actor may still use them later): start the walk at the first
    // gap ending after `ready` instead of skipping over every stale gap —
    // with many senders on one link the stale prefix dominates.
    const auto first = gaps_.begin() + static_cast<ptrdiff_t>(head_);
    auto it = std::lower_bound(
        first, gaps_.end(), ready,
        [](const Gap& gap, SimTime t) { return gap.start < t; });
    if (it != first && std::prev(it)->end > ready) --it;
    for (; it != gaps_.end(); ++it) {
      const Gap gap = *it;
      const SimTime start = std::max(ready, gap.start);
      if (start + duration > gap.end) continue;  // does not fit
      const SimTime end = start + duration;
      if (start > gap.start) {
        it->end = start;  // keep the left part in place
        if (end < gap.end) {
          InsertGap(static_cast<size_t>(it - gaps_.begin()) + 1,
                    Gap{end, gap.end});
        }
      } else if (end < gap.end) {
        it->start = end;  // keep the right part in place
      } else {
        gaps_.erase(it);
      }
      return {start, end};
    }
  }

  // Append at the tail, remembering any idle gap created before it.
  const SimTime start = std::max(ready, busy_until_);
  const SimTime end = start + duration;
  if (start > busy_until_) {
    InsertGap(gaps_.size(), Gap{busy_until_, start});
    max_gap_len_ = std::max(max_gap_len_, start - busy_until_);
    if (gaps_.size() - head_ > kMaxGaps) ++head_;  // evict the oldest
  }
  busy_until_ = end;
  return {start, end};
}

void LinkScheduler::InsertGap(size_t pos, Gap gap) {
  if (gaps_.size() == gaps_.capacity() && head_ > 0 &&
      2 * head_ >= gaps_.size()) {
    // Full: reclaim the evicted prefix instead of growing.
    gaps_.erase(gaps_.begin(), gaps_.begin() + static_cast<ptrdiff_t>(head_));
    pos -= head_;
    head_ = 0;
  }
  gaps_.insert(gaps_.begin() + static_cast<ptrdiff_t>(pos), gap);
}

}  // namespace dfi::net
