#ifndef DFI_CORE_RING_SYNC_H_
#define DFI_CORE_RING_SYNC_H_

#include <cstdint>
#include <deque>

#include "common/exec/engine.h"

namespace dfi {

/// Wakeup channel between the two ends of a ring: a version counter bumped
/// on every footer state change plus the WaitPoint blocked engine tasks park
/// on. Waiting is lost-wakeup-safe in two phases: capture version() *before*
/// scanning ring state; if the scan found nothing, DeadlineWait::Block parks
/// until any Notify() issued after the capture.
///
/// On real hardware a blocked peer spins re-reading the remote footer. The
/// emulation parks the fiber instead and charges the virtual cost of the
/// would-have-been polling from footer timestamps when it wakes.
class RingSync {
 public:
  RingSync() = default;
  RingSync(const RingSync&) = delete;
  RingSync& operator=(const RingSync&) = delete;

  /// Wakes all waiters; call after any footer state change.
  void Notify() {
    ++version_;
    wait_point_.WakeAll();
    exec::BumpProgress();
  }

  uint64_t version() const { return version_; }

  exec::WaitPoint& wait_point() { return wait_point_; }

 private:
  exec::WaitPoint wait_point_;
  uint64_t version_ = 0;
};

/// Per-target ready-channel gate: RingSync-style versioned wakeups plus a
/// queue of channel indices with pending deliveries.
///
/// Every channel of one target thread shares the target's gate. A source
/// enqueues its channel index right after delivering a segment (one entry
/// per delivered segment), so the target pops exactly the channels that
/// have data instead of round-robin scanning every ring: consume cost is
/// O(active channels), not O(num_sources). On real hardware the equivalent
/// is polling a small shared completion/doorbell area instead of n footers.
///
/// Entry/segment accounting: deliveries and entries are 1:1, and a target
/// consumes segments of one channel in ring order, so every successful
/// TryConsume can be matched to one popped entry. Pops that find nothing
/// consumable (e.g. an end marker already recycled) are skipped by the
/// consumer.
class ReadyGate {
 public:
  ReadyGate() = default;
  ReadyGate(const ReadyGate&) = delete;
  ReadyGate& operator=(const ReadyGate&) = delete;

  /// Announces one delivered segment on `channel_index` and wakes the
  /// target.
  void Enqueue(uint32_t channel_index) {
    ready_.push_back(channel_index);
    ++version_;
    wait_point_.WakeAll();
    exec::BumpProgress();
  }

  /// Pops the oldest announced channel index; false when none is pending.
  bool TryDequeue(uint32_t* channel_index) {
    if (ready_.empty()) return false;
    *channel_index = ready_.front();
    ready_.pop_front();
    return true;
  }

  /// Version-only wakeup (no ready entry), e.g. for state changes that are
  /// not segment deliveries.
  void Notify() {
    ++version_;
    wait_point_.WakeAll();
    exec::BumpProgress();
  }

  /// Two-phase waiting, as in RingSync: capture the version *before*
  /// draining the queue.
  uint64_t version() const { return version_; }

  exec::WaitPoint& wait_point() { return wait_point_; }

 private:
  exec::WaitPoint wait_point_;
  std::deque<uint32_t> ready_;
  uint64_t version_ = 0;
};

}  // namespace dfi

#endif  // DFI_CORE_RING_SYNC_H_
