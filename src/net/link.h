#ifndef DFI_NET_LINK_H_
#define DFI_NET_LINK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "net/fault_plan.h"

namespace dfi::net {

/// Time window a transmission occupies on a serial resource.
struct TransferWindow {
  SimTime start = 0;
  SimTime end = 0;
};

/// A serial transmission resource in virtual time: a NIC link direction, a
/// multicast group, or any other bandwidth-limited pipe. A transmission of
/// `bytes` ready at virtual time `ready` occupies the earliest idle
/// interval that fits (first-fit with gap backfill):
///
///   start >= ready,  end = start + bytes * ns_per_byte
///
/// Back-to-back reservations model a saturated link; competing
/// reservations from many actors share the link by *virtual* readiness
/// rather than by call order, which keeps results insensitive to the order
/// the engine happens to run them in. Incast and fan-out bottlenecks emerge
/// from reserving the corresponding ingress / egress schedulers (DESIGN.md
/// §5).
///
/// Not thread-safe: every actor runs on the engine's one OS thread. A
/// reservation takes no lock and, once the gap store has reached its
/// working size, allocates nothing.
class LinkScheduler {
 public:
  /// `bytes_per_ns`: capacity (e.g. 12.5 for a 100 Gbps link).
  LinkScheduler(std::string name, double bytes_per_ns);

  LinkScheduler(const LinkScheduler&) = delete;
  LinkScheduler& operator=(const LinkScheduler&) = delete;

  /// Reserves a transmission of `bytes` that may start no earlier than
  /// `ready` (virtual ns). Returns the occupied window.
  TransferWindow Reserve(SimTime ready, uint64_t bytes);

  /// Models link degradation: while `plan` is active, every reservation
  /// scales its duration by 1 / `plan->LinkRateFactor(node, ready,
  /// base_gbps)` (a 0.1 factor makes every transfer 10x longer). Install
  /// during fabric wiring, before any traffic; without a plan, or while it
  /// is empty, the link runs at full speed with no query cost.
  void set_fault_plan(const FaultPlan* plan, NodeId node, double base_gbps) {
    fault_plan_ = plan;
    fault_node_ = node;
    base_gbps_ = base_gbps;
  }

  /// Virtual time at which the link becomes idle given current reservations.
  SimTime busy_until() const { return busy_until_; }

  /// Total bytes ever reserved (conservation-law checks in tests).
  uint64_t total_bytes() const { return total_bytes_; }

  /// Total virtual time the link was actually occupied (busy time), which
  /// can be less than busy_until() if there were idle gaps.
  SimTime busy_time() const { return busy_time_; }

  const std::string& name() const { return name_; }
  double bytes_per_ns() const { return bytes_per_ns_; }

  /// Most idle gaps kept for backfill; adding a tail gap beyond this drops
  /// the oldest (lowest) one. Splits may leave more gaps live for a while.
  static constexpr size_t kMaxGaps = 128;

 private:
  /// Idle interval [start, end) left behind by an out-of-order reservation.
  struct Gap {
    SimTime start;
    SimTime end;
  };

  /// Inserts `gap` before gaps_[pos] (head_ <= pos <= gaps_.size()). A
  /// full vector first drops its evicted prefix if that frees at least half
  /// of it, so the store grows only when live gaps fill half of it.
  void InsertGap(size_t pos, Gap gap);

  const std::string name_;
  const double ns_per_byte_;
  const double bytes_per_ns_;
  const FaultPlan* fault_plan_ = nullptr;
  NodeId fault_node_ = 0;
  double base_gbps_ = 0.0;

  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t total_bytes_ = 0;
  /// Live gaps are gaps_[head_, gaps_.size()), disjoint and sorted by
  /// start. Evicting the oldest gap advances head_; the evicted prefix is
  /// reclaimed only when the vector is full. Invariant: every gap starts
  /// below busy_until_.
  std::vector<Gap> gaps_;
  size_t head_ = 0;
  /// Upper bound on the length of the longest live gap (lengths only
  /// shrink on split/erase, so the bound stays valid without recomputing).
  /// Lets Reserve skip the first-fit walk outright for transmissions
  /// longer than any gap — the common case once a link saturates and gaps
  /// are sub-segment slivers.
  SimTime max_gap_len_ = 0;
};

}  // namespace dfi::net

#endif  // DFI_NET_LINK_H_
