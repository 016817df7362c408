#ifndef DFI_RDMA_RDMA_ENV_H_
#define DFI_RDMA_RDMA_ENV_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/fabric.h"
#include "rdma/completion_queue.h"
#include "rdma/memory_region.h"
#include "rdma/verbs_types.h"

namespace dfi::rdma {

class RdmaContext;
class RcQueuePair;
class UdQueuePair;

/// Resolved view of a registered memory region.
struct MrInfo {
  uint8_t* base = nullptr;
  size_t length = 0;
  net::NodeId node = net::kInvalidNode;
};

/// Fabric-wide RDMA environment: owns one RdmaContext ("device context")
/// per node, the rkey directory used to resolve one-sided accesses, and the
/// UD queue-pair directory used for datagram/multicast delivery.
///
/// In a real deployment each of these directories is distributed (rkeys are
/// exchanged out-of-band, UD QPNs via the subnet manager); centralizing
/// them inside the emulation changes no API-visible behavior.
class RdmaEnv {
 public:
  explicit RdmaEnv(net::Fabric* fabric);
  ~RdmaEnv();

  RdmaEnv(const RdmaEnv&) = delete;
  RdmaEnv& operator=(const RdmaEnv&) = delete;

  /// Device context for `node`, created on first use.
  RdmaContext* context(net::NodeId node);

  net::Fabric& fabric() { return *fabric_; }
  const net::SimConfig& config() const { return fabric_->config(); }

  /// rkey directory -------------------------------------------------------
  uint32_t RegisterMr(uint8_t* base, size_t length, net::NodeId node);
  void DeregisterMr(uint32_t rkey);
  StatusOr<MrInfo> ResolveMr(uint32_t rkey) const;
  /// Resolves a RemoteRef to a raw pointer, checking bounds.
  StatusOr<uint8_t*> ResolveRemote(const RemoteRef& ref, uint32_t length) const;
  net::NodeId MrNode(uint32_t rkey) const;

  /// UD directory ---------------------------------------------------------
  uint32_t RegisterUdQp(UdQueuePair* qp);
  void DeregisterUdQp(uint32_t qpn);
  UdQueuePair* FindUdQp(uint32_t qpn) const;
  void AttachToGroup(net::MulticastGroupId group, UdQueuePair* qp);
  std::vector<UdQueuePair*> GroupQps(net::MulticastGroupId group) const;

 private:
  net::Fabric* const fabric_;

  std::unordered_map<net::NodeId, std::unique_ptr<RdmaContext>> contexts_;
  uint32_t next_rkey_ = 1;
  std::unordered_map<uint32_t, MrInfo> mrs_;
  uint32_t next_qpn_ = 1;
  std::unordered_map<uint32_t, UdQueuePair*> ud_qps_;
  std::unordered_map<net::MulticastGroupId, std::vector<UdQueuePair*>>
      group_qps_;
};

/// Per-node device context: factory for memory regions, completion queues
/// and queue pairs on one node. All objects returned are owned by the
/// context and live until it is destroyed.
class RdmaContext {
 public:
  RdmaContext(RdmaEnv* env, net::NodeId node);
  ~RdmaContext();

  RdmaContext(const RdmaContext&) = delete;
  RdmaContext& operator=(const RdmaContext&) = delete;

  net::NodeId node_id() const { return node_; }
  net::Node& node();
  RdmaEnv& env() { return *env_; }
  const net::SimConfig& config() const { return env_->config(); }

  /// Allocates and registers a zeroed buffer of `bytes` (the emulation's
  /// analogue of posix_memalign + ibv_reg_mr on huge pages).
  MemoryRegion* AllocateRegion(size_t bytes);

  /// Registers caller-owned memory.
  MemoryRegion* RegisterRegion(uint8_t* addr, size_t bytes);

  CompletionQueue* CreateCq();

  /// Creates a reliable-connection QP to `remote` posting completions to
  /// `send_cq` (may be null if the QP is used unsignaled only).
  RcQueuePair* CreateRcQp(net::NodeId remote, CompletionQueue* send_cq);

  /// Creates an unreliable-datagram QP; receives complete on `recv_cq`.
  UdQueuePair* CreateUdQp(CompletionQueue* send_cq, CompletionQueue* recv_cq);

 private:
  RdmaEnv* const env_;
  const net::NodeId node_;

  std::vector<std::unique_ptr<MemoryRegion>> regions_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<RcQueuePair>> rc_qps_;
  std::vector<std::unique_ptr<UdQueuePair>> ud_qps_;
};

}  // namespace dfi::rdma

#endif  // DFI_RDMA_RDMA_ENV_H_
