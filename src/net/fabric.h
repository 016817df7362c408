#ifndef DFI_NET_FABRIC_H_
#define DFI_NET_FABRIC_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/fault_plan.h"
#include "net/link.h"
#include "net/sim_config.h"

namespace dfi::net {

// NodeId itself lives in fault_plan.h (included above) to avoid a cycle.
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Identifies one multicast group on the switch.
using MulticastGroupId = uint32_t;

/// One emulated cluster node: a host with one NIC. Both link directions are
/// modeled (full duplex), matching one InfiniBand EDR port.
class Node {
 public:
  Node(NodeId id, std::string address, const SimConfig& config);

  NodeId id() const { return id_; }
  const std::string& address() const { return address_; }

  /// Link from this node's NIC into the switch.
  LinkScheduler& egress() { return egress_; }
  /// Link from the switch into this node's NIC.
  LinkScheduler& ingress() { return ingress_; }

  /// Registered-memory accounting (paper section 6.1.4). Deregistering more
  /// than is registered would wrap the unsigned counter and poison every
  /// later reading; debug builds assert, release builds clamp to zero.
  void AddRegisteredBytes(uint64_t bytes) { registered_bytes_ += bytes; }
  void SubRegisteredBytes(uint64_t bytes) {
    assert(registered_bytes_ >= bytes && "SubRegisteredBytes underflow");
    registered_bytes_ =
        registered_bytes_ >= bytes ? registered_bytes_ - bytes : 0;
  }
  uint64_t registered_bytes() const { return registered_bytes_; }

 private:
  const NodeId id_;
  const std::string address_;
  LinkScheduler egress_;
  LinkScheduler ingress_;
  uint64_t registered_bytes_ = 0;
};

/// The single switch connecting all nodes. Hosts multicast groups: each
/// group is a serial resource (paper: multiple sender threads within one
/// group do not scale) that replicates a message to all member ingress
/// links. Can inject per-delivery losses for UD traffic.
class Switch {
 public:
  explicit Switch(const SimConfig& config);

  MulticastGroupId CreateGroup();
  Status JoinGroup(MulticastGroupId group, NodeId node);
  std::vector<NodeId> GroupMembers(MulticastGroupId group) const;

  /// Serializes a multicast message on the group resource.
  TransferWindow ReserveGroup(MulticastGroupId group, SimTime ready,
                              uint64_t bytes);

  /// Deterministic per-delivery drop decision: hashes (loss seed, `key`,
  /// `target`) against the configured loss probability plus any fault-plan
  /// loss burst active at virtual time `at`. The outcome does not depend on
  /// the order threads reach the switch, so a given seed + plan drops the
  /// same deliveries on every run (the old RNG-based ShouldDrop() drew from
  /// a shared stream in arrival order and broke that contract; it is gone).
  bool ShouldDropDelivery(uint64_t key, NodeId target, SimTime at) const;

  /// Same hashing scheme for reorder injection (delays one delivery past
  /// its successor; see UdQueuePair::Deliver).
  bool ShouldReorderDelivery(uint64_t key, NodeId target) const;

  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  size_t group_count() const;

 private:
  struct Group {
    std::unique_ptr<LinkScheduler> resource;
    std::vector<NodeId> members;
  };

  const SimConfig& config_;
  const FaultPlan* fault_plan_ = nullptr;
  std::vector<Group> groups_;
};

/// The emulated cluster: node directory + switch + configuration. One
/// Fabric instance is one experiment environment; all DFI / verbs / MPI
/// objects hang off it.
class Fabric {
 public:
  explicit Fabric(SimConfig config = SimConfig());

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Adds a node with a unique address (e.g. "192.168.0.1"). Addresses are
  /// free-form strings; DFI's "ip|threadId" notation resolves against them.
  StatusOr<NodeId> AddNode(const std::string& address);

  /// Convenience: adds `n` nodes named "10.0.0.<i>".
  std::vector<NodeId> AddNodes(size_t n);

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  StatusOr<NodeId> ResolveAddress(const std::string& address) const;
  size_t node_count() const;

  Switch& network_switch() { return switch_; }
  const SimConfig& config() const { return config_; }

  /// The fabric's fault script (empty by default). Schedule events before
  /// starting the workload; every layer (links, switch, queue pairs, DFI
  /// blocking paths) consults it at virtual operation times.
  FaultPlan& fault_plan() { return fault_plan_; }
  const FaultPlan& fault_plan() const { return fault_plan_; }

 private:
  const SimConfig config_;
  FaultPlan fault_plan_;
  Switch switch_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::string, NodeId> by_address_;
};

}  // namespace dfi::net

#endif  // DFI_NET_FABRIC_H_
