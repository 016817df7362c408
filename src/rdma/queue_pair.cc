#include "rdma/queue_pair.h"

#include <atomic>
#include <cmath>

#include "common/exec/engine.h"
#include "common/logging.h"
#include "rdma/dma_memory.h"
#include "rdma/rdma_env.h"

namespace dfi::rdma {

namespace {
/// Wire size of the request packet of a READ / FETCH_ADD.
constexpr uint32_t kRequestBytes = 16;
}  // namespace

RcQueuePair::RcQueuePair(RdmaEnv* env, net::NodeId local, net::NodeId remote,
                         CompletionQueue* send_cq)
    : env_(env), local_(local), remote_(remote), send_cq_(send_cq) {}

Status RcQueuePair::CheckConnected(SimTime at) const {
  const net::FaultPlan& plan = env_->fabric().fault_plan();
  if (!plan.active()) return Status::OK();
  if (!plan.NodeAlive(remote_, at)) {
    return Status::PeerFailed("remote node " + std::to_string(remote_) +
                              " crashed");
  }
  if (!plan.NodeAlive(local_, at)) {
    return Status::PeerFailed("local node " + std::to_string(local_) +
                              " crashed");
  }
  if (!plan.Reachable(local_, remote_, at)) {
    return Status::PeerFailed("node " + std::to_string(remote_) +
                              " partitioned from node " +
                              std::to_string(local_));
  }
  return Status::OK();
}

OpTiming RcQueuePair::PlanWrite(uint32_t length, bool inlined,
                                VirtualClock* clock) {
  const net::SimConfig& cfg = env_->config();
  SimTime post_cost = cfg.post_wqe_ns;
  if (inlined) {
    DFI_DCHECK(length <= cfg.max_inline_bytes);
    post_cost += static_cast<SimTime>(
        std::llround(length * cfg.inline_copy_ns_per_byte));
  }
  clock->Advance(post_cost);

  OpTiming t;
  t.post_done = clock->now();
  // Links are reserved in virtual-time order: every task that posts
  // earlier reserves first.
  exec::Engine::Yield(t.post_done);
  const SimTime nic_ready = t.post_done + cfg.nic_process_ns;
  net::Fabric& fabric = env_->fabric();
  const net::TransferWindow egress =
      fabric.node(local_).egress().Reserve(nic_ready, length);
  const net::TransferWindow ingress = fabric.node(remote_).ingress().Reserve(
      egress.end + cfg.propagation_ns, length);
  t.arrival = ingress.end;
  t.ack = t.arrival + cfg.propagation_ns;
  ++writes_posted_;
  return t;
}

Status RcQueuePair::CommitWrite(const WriteDesc& desc, const OpTiming& timing) {
  Status connected = CheckConnected(timing.post_done);
  if (!connected.ok()) {
    if (desc.signaled && send_cq_ != nullptr) {
      send_cq_->Push(Completion{desc.wr_id, WorkType::kWrite, timing.post_done,
                                desc.length, false, local_});
    }
    return connected;
  }
  DFI_ASSIGN_OR_RETURN(uint8_t * dst,
                       env_->ResolveRemote(desc.remote, desc.length));
  DmaCopy(dst, desc.local, desc.length);
  if (desc.signaled) {
    DFI_CHECK(send_cq_ != nullptr) << "signaled write on QP without send CQ";
    send_cq_->Push(Completion{desc.wr_id, WorkType::kWrite, timing.ack,
                              desc.length, true, local_});
  }
  return Status::OK();
}

StatusOr<OpTiming> RcQueuePair::PostWrite(const WriteDesc& desc,
                                          VirtualClock* clock) {
  OpTiming t = PlanWrite(desc.length, desc.inlined, clock);
  DFI_RETURN_IF_ERROR(CommitWrite(desc, t));
  return t;
}

OpTiming RcQueuePair::PlanRoundTrip(uint32_t response_bytes,
                                    VirtualClock* clock) {
  const net::SimConfig& cfg = env_->config();
  clock->Advance(cfg.post_wqe_ns);

  OpTiming t;
  t.post_done = clock->now();
  net::Fabric& fabric = env_->fabric();
  const SimTime nic_ready = t.post_done + cfg.nic_process_ns;
  // Request packet to the responder.
  const net::TransferWindow req_egress =
      fabric.node(local_).egress().Reserve(nic_ready, kRequestBytes);
  const SimTime request_at = req_egress.end + cfg.propagation_ns;
  // Response generated by the responder NIC (no remote CPU).
  const net::TransferWindow resp_egress =
      fabric.node(remote_).egress().Reserve(
          request_at + cfg.read_response_ns, response_bytes);
  const net::TransferWindow resp_ingress =
      fabric.node(local_).ingress().Reserve(
          resp_egress.end + cfg.propagation_ns, response_bytes);
  t.arrival = resp_ingress.end;
  t.ack = t.arrival;
  return t;
}

StatusOr<OpTiming> RcQueuePair::PostRead(const ReadDesc& desc,
                                         VirtualClock* clock) {
  Status connected = CheckConnected(clock->now());
  if (!connected.ok()) {
    if (desc.signaled && send_cq_ != nullptr) {
      send_cq_->Push(Completion{desc.wr_id, WorkType::kRead, clock->now(),
                                desc.length, false, local_});
    }
    return connected;
  }
  DFI_ASSIGN_OR_RETURN(uint8_t * src,
                       env_->ResolveRemote(desc.remote, desc.length));
  const OpTiming t = PlanRoundTrip(desc.length, clock);
  DmaCopy(desc.local, src, desc.length);
  ++reads_posted_;
  if (desc.signaled) {
    DFI_CHECK(send_cq_ != nullptr) << "signaled read on QP without send CQ";
    send_cq_->Push(Completion{desc.wr_id, WorkType::kRead, t.ack, desc.length,
                              true, local_});
  }
  return t;
}

StatusOr<uint64_t> RcQueuePair::FetchAdd(const RemoteRef& remote, uint64_t add,
                                         VirtualClock* clock) {
  DFI_RETURN_IF_ERROR(CheckConnected(clock->now()));
  DFI_ASSIGN_OR_RETURN(uint8_t * addr,
                       env_->ResolveRemote(remote, sizeof(uint64_t)));
  DFI_CHECK_EQ(reinterpret_cast<uintptr_t>(addr) % alignof(uint64_t), 0u);
  const OpTiming t = PlanRoundTrip(sizeof(uint64_t), clock);
  const uint64_t old = std::atomic_ref<uint64_t>(
      *reinterpret_cast<uint64_t*>(addr))
                           .fetch_add(add, std::memory_order_acq_rel);
  clock->AdvanceTo(t.arrival);
  return old;
}

}  // namespace dfi::rdma
