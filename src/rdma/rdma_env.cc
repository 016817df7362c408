#include "rdma/rdma_env.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "rdma/queue_pair.h"
#include "rdma/ud_queue_pair.h"

namespace dfi::rdma {

RdmaEnv::RdmaEnv(net::Fabric* fabric) : fabric_(fabric) {
  DFI_CHECK(fabric != nullptr);
}

RdmaEnv::~RdmaEnv() = default;

RdmaContext* RdmaEnv::context(net::NodeId node) {
  auto it = contexts_.find(node);
  if (it != contexts_.end()) return it->second.get();
  auto ctx = std::make_unique<RdmaContext>(this, node);
  RdmaContext* raw = ctx.get();
  contexts_.emplace(node, std::move(ctx));
  return raw;
}

uint32_t RdmaEnv::RegisterMr(uint8_t* base, size_t length, net::NodeId node) {
  const uint32_t rkey = next_rkey_++;
  mrs_[rkey] = MrInfo{base, length, node};
  return rkey;
}

void RdmaEnv::DeregisterMr(uint32_t rkey) {
  mrs_.erase(rkey);
}

StatusOr<MrInfo> RdmaEnv::ResolveMr(uint32_t rkey) const {
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) {
    return Status::NotFound("rkey " + std::to_string(rkey));
  }
  return it->second;
}

StatusOr<uint8_t*> RdmaEnv::ResolveRemote(const RemoteRef& ref,
                                          uint32_t length) const {
  DFI_ASSIGN_OR_RETURN(MrInfo info, ResolveMr(ref.rkey));
  if (ref.offset + length > info.length) {
    return Status::OutOfRange(
        "remote access [" + std::to_string(ref.offset) + ", " +
        std::to_string(ref.offset + length) + ") exceeds MR of " +
        std::to_string(info.length) + " bytes");
  }
  return info.base + ref.offset;
}

net::NodeId RdmaEnv::MrNode(uint32_t rkey) const {
  auto info = ResolveMr(rkey);
  return info.ok() ? info->node : net::kInvalidNode;
}

uint32_t RdmaEnv::RegisterUdQp(UdQueuePair* qp) {
  const uint32_t qpn = next_qpn_++;
  ud_qps_[qpn] = qp;
  return qpn;
}

void RdmaEnv::DeregisterUdQp(uint32_t qpn) {
  ud_qps_.erase(qpn);
  for (auto& [group, qps] : group_qps_) {
    std::erase_if(qps, [qpn](UdQueuePair* q) { return q->qpn() == qpn; });
  }
}

UdQueuePair* RdmaEnv::FindUdQp(uint32_t qpn) const {
  auto it = ud_qps_.find(qpn);
  return it == ud_qps_.end() ? nullptr : it->second;
}

void RdmaEnv::AttachToGroup(net::MulticastGroupId group, UdQueuePair* qp) {
  group_qps_[group].push_back(qp);
}

std::vector<UdQueuePair*> RdmaEnv::GroupQps(
    net::MulticastGroupId group) const {
  auto it = group_qps_.find(group);
  return it == group_qps_.end() ? std::vector<UdQueuePair*>{} : it->second;
}

RdmaContext::RdmaContext(RdmaEnv* env, net::NodeId node)
    : env_(env), node_(node) {}

RdmaContext::~RdmaContext() {
  // Deregister rkeys before regions free their memory.
  for (auto& region : regions_) {
    env_->DeregisterMr(region->rkey());
  }
}

net::Node& RdmaContext::node() { return env_->fabric().node(node_); }

MemoryRegion* RdmaContext::AllocateRegion(size_t bytes) {
  auto buffer = std::make_unique<uint8_t[]>(bytes);
  std::memset(buffer.get(), 0, bytes);
  uint8_t* addr = buffer.get();
  const uint32_t rkey = env_->RegisterMr(addr, bytes, node_);
  auto region = std::unique_ptr<MemoryRegion>(new MemoryRegion(
      addr, bytes, rkey, node_, std::move(buffer), &node()));
  MemoryRegion* raw = region.get();
  regions_.push_back(std::move(region));
  return raw;
}

MemoryRegion* RdmaContext::RegisterRegion(uint8_t* addr, size_t bytes) {
  const uint32_t rkey = env_->RegisterMr(addr, bytes, node_);
  auto region = std::unique_ptr<MemoryRegion>(
      new MemoryRegion(addr, bytes, rkey, node_, nullptr, &node()));
  MemoryRegion* raw = region.get();
  regions_.push_back(std::move(region));
  return raw;
}

CompletionQueue* RdmaContext::CreateCq() {
  auto cq = std::make_unique<CompletionQueue>(config().poll_cq_ns);
  CompletionQueue* raw = cq.get();
  cqs_.push_back(std::move(cq));
  return raw;
}

RcQueuePair* RdmaContext::CreateRcQp(net::NodeId remote,
                                     CompletionQueue* send_cq) {
  auto qp = std::make_unique<RcQueuePair>(env_, node_, remote, send_cq);
  RcQueuePair* raw = qp.get();
  rc_qps_.push_back(std::move(qp));
  return raw;
}

UdQueuePair* RdmaContext::CreateUdQp(CompletionQueue* send_cq,
                                     CompletionQueue* recv_cq) {
  auto qp = std::make_unique<UdQueuePair>(env_, node_, send_cq, recv_cq);
  UdQueuePair* raw = qp.get();
  ud_qps_.push_back(std::move(qp));
  return raw;
}

}  // namespace dfi::rdma
