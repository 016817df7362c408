#ifndef DFI_CORE_ENDPOINT_ABORT_LATCH_H_
#define DFI_CORE_ENDPOINT_ABORT_LATCH_H_

#include <atomic>

#include "common/status.h"

namespace dfi {

/// Flow-granular teardown flag. Flows whose transport has no per-pair
/// channel to poison (multicast replication) — or whose semantics make any
/// participant failure a whole-flow failure — trip this latch instead; every
/// endpoint checks it on its next operation or poll slice. The first cause
/// wins; later trips are no-ops.
class AbortLatch {
 public:
  AbortLatch() = default;

  AbortLatch(const AbortLatch&) = delete;
  AbortLatch& operator=(const AbortLatch&) = delete;

  /// Trips the latch. Returns true when this call was the one that tripped
  /// it (the caller then performs the one-time teardown side effects, e.g.
  /// poisoning channels or waking credit waiters).
  bool Trip(const Status& cause) {
    if (tripped_.load(std::memory_order_relaxed)) return false;
    cause_ = cause.ok() ? Status::Aborted("flow aborted") : cause;
    tripped_.store(true, std::memory_order_release);
    return true;
  }

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// The teardown cause (OK when not tripped).
  Status status() const { return cause_; }

 private:
  std::atomic<bool> tripped_{false};
  Status cause_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_ABORT_LATCH_H_
