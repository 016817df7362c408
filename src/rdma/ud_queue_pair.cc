#include "rdma/ud_queue_pair.h"

#include <cmath>

#include "common/exec/engine.h"
#include "common/logging.h"
#include "rdma/dma_memory.h"
#include "rdma/rdma_env.h"

namespace dfi::rdma {

UdQueuePair::UdQueuePair(RdmaEnv* env, net::NodeId local,
                         CompletionQueue* send_cq, CompletionQueue* recv_cq)
    : env_(env), local_(local), send_cq_(send_cq), recv_cq_(recv_cq) {
  qpn_ = env_->RegisterUdQp(this);
}

UdQueuePair::~UdQueuePair() { env_->DeregisterUdQp(qpn_); }

Status UdQueuePair::AttachMulticast(net::MulticastGroupId group) {
  DFI_RETURN_IF_ERROR(
      env_->fabric().network_switch().JoinGroup(group, local_));
  env_->AttachToGroup(group, this);
  return Status::OK();
}

void UdQueuePair::PostRecv(void* buf, uint32_t length, uint64_t wr_id) {
  std::lock_guard<std::mutex> lock(mu_);
  recv_queue_.push_back(RecvWqe{buf, length, wr_id});
}

bool UdQueuePair::Deliver(const void* buf, uint32_t length, SimTime arrival,
                          net::NodeId src, uint64_t key) {
  RecvWqe wqe;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (recv_queue_.empty()) {
      drops_no_recv_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    wqe = recv_queue_.front();
    if (length > wqe.length) {
      drops_no_recv_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    recv_queue_.pop_front();
  }
  DmaCopy(wqe.buf, buf, length);
  DFI_CHECK(recv_cq_ != nullptr) << "UD delivery on QP without recv CQ";
  const Completion completion{wqe.wr_id, WorkType::kRecv, arrival, length,
                              true, src};
  // Reorder injection: the payload landed (DMA happens at delivery time),
  // but the completion may be held until the next delivery and then pushed
  // *behind* it — the receiver observes genuine out-of-order arrival.
  std::optional<Completion> release;
  bool hold = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (held_completion_.has_value()) {
      release = held_completion_;
      held_completion_.reset();
    } else if (env_->fabric().network_switch().ShouldReorderDelivery(key,
                                                                     local_)) {
      held_completion_ = completion;
      hold = true;
    }
  }
  if (!hold) recv_cq_->Push(completion);
  if (release.has_value()) recv_cq_->Push(*release);
  return true;
}

StatusOr<OpTiming> UdQueuePair::PostSend(uint32_t dst_qpn, const void* buf,
                                         uint32_t length, uint64_t wr_id,
                                         bool signaled, VirtualClock* clock) {
  const net::SimConfig& cfg = env_->config();
  if (length > cfg.ud_mtu_bytes) {
    return Status::InvalidArgument("UD payload " + std::to_string(length) +
                                   " exceeds MTU " +
                                   std::to_string(cfg.ud_mtu_bytes));
  }
  UdQueuePair* dst = env_->FindUdQp(dst_qpn);
  if (dst == nullptr) {
    return Status::NotFound("UD QPN " + std::to_string(dst_qpn));
  }
  const net::FaultPlan& plan = env_->fabric().fault_plan();
  if (plan.active() && !plan.NodeAlive(local_, clock->now())) {
    if (signaled && send_cq_ != nullptr) {
      send_cq_->Push(Completion{wr_id, WorkType::kSend, clock->now(), length,
                                false, local_});
    }
    return Status::PeerFailed("local node " + std::to_string(local_) +
                              " crashed");
  }
  clock->Advance(cfg.post_wqe_ns + cfg.ud_send_overhead_ns);

  OpTiming t;
  t.post_done = clock->now();
  exec::Engine::Yield(t.post_done);  // reserve links in virtual-time order
  net::Fabric& fabric = env_->fabric();
  const net::TransferWindow egress = fabric.node(local_).egress().Reserve(
      t.post_done + cfg.nic_process_ns, length);
  const net::TransferWindow ingress = fabric.node(dst->node())
                                          .ingress()
                                          .Reserve(egress.end +
                                                       cfg.propagation_ns,
                                                   length);
  t.arrival = ingress.end;
  t.ack = egress.end;  // UD send completes locally once on the wire.

  // Unreliable semantics: datagrams to a crashed or partitioned node simply
  // vanish — the sender still gets its (successful) send completion. Loss is
  // decided per (message, target) by a deterministic hash, as in multicast.
  const bool target_ok =
      !plan.active() || (plan.NodeAlive(dst->node(), t.arrival) &&
                         plan.Reachable(local_, dst->node(), t.arrival));
  if (target_ok && !fabric.network_switch().ShouldDropDelivery(
                       wr_id, dst->node(), t.arrival)) {
    dst->Deliver(buf, length, t.arrival, local_, wr_id);
  }
  if (signaled) {
    DFI_CHECK(send_cq_ != nullptr) << "signaled UD send without send CQ";
    send_cq_->Push(
        Completion{wr_id, WorkType::kSend, t.ack, length, true, local_});
  }
  return t;
}

StatusOr<OpTiming> UdQueuePair::PostSendMulticast(net::MulticastGroupId group,
                                                  const void* buf,
                                                  uint32_t length,
                                                  uint64_t wr_id,
                                                  bool signaled,
                                                  VirtualClock* clock) {
  const net::SimConfig& cfg = env_->config();
  if (length > cfg.ud_mtu_bytes) {
    return Status::InvalidArgument("UD payload " + std::to_string(length) +
                                   " exceeds MTU " +
                                   std::to_string(cfg.ud_mtu_bytes));
  }
  const net::FaultPlan& plan = env_->fabric().fault_plan();
  if (plan.active() && !plan.NodeAlive(local_, clock->now())) {
    if (signaled && send_cq_ != nullptr) {
      send_cq_->Push(Completion{wr_id, WorkType::kSend, clock->now(), length,
                                false, local_});
    }
    return Status::PeerFailed("local node " + std::to_string(local_) +
                              " crashed");
  }
  clock->Advance(cfg.post_wqe_ns + cfg.ud_send_overhead_ns);

  OpTiming t;
  t.post_done = clock->now();
  exec::Engine::Yield(t.post_done);  // reserve links in virtual-time order
  net::Fabric& fabric = env_->fabric();
  const net::TransferWindow egress = fabric.node(local_).egress().Reserve(
      t.post_done + cfg.nic_process_ns, length);
  // The message is serialized once on the group resource in the switch,
  // then replicated onto every member's ingress link.
  const net::TransferWindow grp = fabric.network_switch().ReserveGroup(
      group, egress.end + cfg.propagation_ns / 2, length);
  t.ack = egress.end;

  SimTime last_arrival = grp.end;
  for (UdQueuePair* qp : env_->GroupQps(group)) {
    if (qp == this) continue;  // A source does not loop back to itself.
    const net::TransferWindow ingress =
        fabric.node(qp->node()).ingress().Reserve(grp.end, length);
    const SimTime arrival = ingress.end + cfg.propagation_ns / 2;
    last_arrival = std::max(last_arrival, arrival);
    // Deliveries to crashed or partitioned members vanish silently.
    if (plan.active() && (!plan.NodeAlive(qp->node(), arrival) ||
                          !plan.Reachable(local_, qp->node(), arrival))) {
      continue;
    }
    // Loss is decided per (message, target) by a deterministic hash, so a
    // given seed drops the same deliveries regardless of thread timing.
    if (fabric.network_switch().ShouldDropDelivery(wr_id, qp->node(),
                                                   arrival)) {
      continue;
    }
    qp->Deliver(buf, length, arrival, local_, wr_id);
  }
  t.arrival = last_arrival;

  if (signaled) {
    DFI_CHECK(send_cq_ != nullptr) << "signaled UD send without send CQ";
    send_cq_->Push(
        Completion{wr_id, WorkType::kSend, t.ack, length, true, local_});
  }
  return t;
}

size_t UdQueuePair::posted_recvs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recv_queue_.size();
}

}  // namespace dfi::rdma
