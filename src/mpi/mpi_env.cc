#include "mpi/mpi_env.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace dfi::mpi {

MpiEnv::MpiEnv(net::Fabric* fabric, std::vector<net::NodeId> rank_nodes,
               ThreadMode mode, uint32_t threads_per_rank)
    : fabric_(fabric),
      rank_nodes_(std::move(rank_nodes)),
      mode_(mode),
      threads_per_rank_(threads_per_rank) {
  DFI_CHECK(!rank_nodes_.empty());
  DFI_CHECK_GE(threads_per_rank_, 1u);
  latches_.reserve(rank_nodes_.size());
  for (size_t r = 0; r < rank_nodes_.size(); ++r) {
    // 1 B/ns so reserved "bytes" equal nanoseconds of latch hold.
    latches_.push_back(std::make_unique<net::LinkScheduler>(
        "mpi-latch:" + std::to_string(r), 1.0));
  }
  a2a_send_.resize(rank_nodes_.size(), nullptr);
  a2a_recv_.resize(rank_nodes_.size(), nullptr);
}

MpiEnv::~MpiEnv() = default;

void MpiEnv::ChargeCallOverhead(int rank, VirtualClock* clock) {
  const net::SimConfig& cfg = config();
  clock->Advance(cfg.mpi_msg_overhead_ns);
  if (mode_ == ThreadMode::kMultiple && threads_per_rank_ > 1) {
    // Every MPI call serializes on the rank's global latch; the hold time
    // grows with contention (cache-line bouncing), which is why
    // multi-threaded MPI *degrades* with more threads (Figure 10b).
    const SimTime hold =
        cfg.mpi_latch_hold_ns +
        cfg.mpi_latch_bounce_ns * static_cast<SimTime>(threads_per_rank_ - 1);
    const net::TransferWindow w = latches_[rank]->Reserve(
        clock->now(), static_cast<uint64_t>(hold));
    clock->AdvanceTo(w.end);
  }
  if (threads_per_rank_ == 1 && mode_ == ThreadMode::kSingle &&
      rank_nodes_.size() > 1) {
    // Multi-process mode on one node pays the shared-memory copy toll when
    // exchanging with co-located processes; modeled as a flat per-call
    // extra (only charged when several ranks share a node).
    net::NodeId node = rank_nodes_[rank];
    for (size_t r = 0; r < rank_nodes_.size(); ++r) {
      if (static_cast<int>(r) != rank && rank_nodes_[r] == node) {
        clock->Advance(cfg.mpi_shm_copy_extra_ns);
        break;
      }
    }
  }
}

MpiEnv::Mailbox& MpiEnv::mailbox(int src, int dst, int tag) {
  auto& slot = mailboxes_[{src, dst, tag}];
  if (!slot) slot = std::make_unique<Mailbox>();
  return *slot;
}

Status MpiEnv::Send(int src_rank, int dst_rank, int tag, const void* buf,
                    size_t bytes, VirtualClock* clock) {
  if (src_rank < 0 || src_rank >= size() || dst_rank < 0 ||
      dst_rank >= size()) {
    return Status::OutOfRange("rank out of range");
  }
  ChargeCallOverhead(src_rank, clock);
  const net::SimConfig& cfg = config();
  Mailbox& mb = mailbox(src_rank, dst_rank, tag);

  if (bytes <= cfg.mpi_eager_threshold) {
    // Eager protocol: payload copied into MPI internal buffers and shipped
    // immediately; the sender returns without waiting for the receiver.
    clock->Advance(static_cast<SimTime>(
        std::llround(bytes * cfg.tuple_copy_ns_per_byte)));
    const net::TransferWindow egress =
        fabric_->node(rank_nodes_[src_rank])
            .egress()
            .Reserve(clock->now() + cfg.nic_process_ns, bytes);
    const net::TransferWindow ingress =
        fabric_->node(rank_nodes_[dst_rank])
            .ingress()
            .Reserve(egress.end + cfg.propagation_ns, bytes);
    auto msg = std::make_shared<Message>();
    msg->data.assign(static_cast<const uint8_t*>(buf),
                     static_cast<const uint8_t*>(buf) + bytes);
    msg->arrival = ingress.end;
    msg->rendezvous = false;
    msg->bytes = bytes;
    msg->sender_post = clock->now();
    mb.messages.push_back(std::move(msg));
    mb.wait_point.WakeAll();
    exec::BumpProgress();
    return Status::OK();
  }

  // Rendezvous protocol: announce, then block until the receiver matched
  // and the payload left the sender's buffer.
  auto msg = std::make_shared<Message>();
  msg->rendezvous = true;
  msg->src_buf = buf;
  msg->bytes = bytes;
  msg->sender_post = clock->now();
  mb.messages.push_back(msg);
  mb.wait_point.WakeAll();
  exec::BumpProgress();
  // Park until the receiver matches.
  auto matched = [&] { return msg->matched; };
  while (!matched()) {
    exec::Engine::Park(&mb.wait_point, matched, clock->now(),
                       exec::Engine::kNoTimer);
  }
  clock->AdvanceTo(msg->sender_done);
  return Status::OK();
}

Status MpiEnv::Recv(int dst_rank, int src_rank, int tag, void* buf,
                    size_t bytes, VirtualClock* clock) {
  if (src_rank < 0 || src_rank >= size() || dst_rank < 0 ||
      dst_rank >= size()) {
    return Status::OutOfRange("rank out of range");
  }
  ChargeCallOverhead(dst_rank, clock);
  const net::SimConfig& cfg = config();
  Mailbox& mb = mailbox(src_rank, dst_rank, tag);

  auto has_message = [&] { return !mb.messages.empty(); };
  while (!has_message()) {
    exec::Engine::Park(&mb.wait_point, has_message, clock->now(),
                       exec::Engine::kNoTimer);
  }
  std::shared_ptr<Message> msg = mb.messages.front();
  mb.messages.pop_front();
  if (msg->bytes != bytes) {
    return Status::InvalidArgument(
        "receive size mismatch: posted " + std::to_string(bytes) +
        ", message has " + std::to_string(msg->bytes));
  }

  if (!msg->rendezvous) {
    std::memcpy(buf, msg->data.data(), bytes);
    clock->AdvanceTo(msg->arrival);
    clock->Advance(static_cast<SimTime>(
        std::llround(bytes * cfg.tuple_copy_ns_per_byte)));
    return Status::OK();
  }

  // Rendezvous: RTS/CTS handshake, then the pipelined bulk transfer.
  const SimTime handshake_done =
      std::max(msg->sender_post, clock->now()) + 2 * cfg.propagation_ns;
  const net::TransferWindow egress =
      fabric_->node(rank_nodes_[src_rank])
          .egress()
          .Reserve(handshake_done + cfg.nic_process_ns, bytes);
  const net::TransferWindow ingress =
      fabric_->node(rank_nodes_[dst_rank])
          .ingress()
          .Reserve(egress.end + cfg.propagation_ns, bytes);
  std::memcpy(buf, msg->src_buf, bytes);
  msg->sender_done = egress.end;
  msg->matched = true;
  mb.wait_point.WakeAll();
  exec::BumpProgress();
  clock->AdvanceTo(ingress.end);
  return Status::OK();
}

SimTime MpiEnv::BarrierJoin(BarrierState& state, VirtualClock* clock) {
  state.max_time = std::max(state.max_time, clock->now());
  if (++state.waiting == rank_nodes_.size()) {
    state.release_time = state.max_time;
    state.max_time = 0;
    state.waiting = 0;
    ++state.generation;
    state.wait_point.WakeAll();
    exec::BumpProgress();
    clock->AdvanceTo(state.release_time);
    return state.release_time;
  }
  const uint64_t gen = state.generation;
  auto released = [&] { return state.generation != gen; };
  while (!released()) {
    exec::Engine::Park(&state.wait_point, released, clock->now(),
                       exec::Engine::kNoTimer);
  }
  clock->AdvanceTo(state.release_time);
  return state.release_time;
}

Status MpiEnv::Barrier(int rank, VirtualClock* clock) {
  ChargeCallOverhead(rank, clock);
  BarrierJoin(barrier_, clock);
  return Status::OK();
}

Status MpiEnv::Alltoall(int rank, const void* sendbuf, void* recvbuf,
                        size_t bytes_per_rank, VirtualClock* clock) {
  ChargeCallOverhead(rank, clock);
  const net::SimConfig& cfg = config();
  const int n = size();
  a2a_send_[rank] = sendbuf;
  a2a_recv_[rank] = recvbuf;
  // Bulk synchronous: no byte moves before every rank arrived (this is the
  // blocking behavior that makes collectives straggler-sensitive).
  const SimTime t0 = BarrierJoin(alltoall_enter_, clock);

  SimTime done = t0;
  for (int q = 0; q < n; ++q) {
    const uint8_t* src =
        static_cast<const uint8_t*>(a2a_send_[rank]) + q * bytes_per_rank;
    uint8_t* dst = static_cast<uint8_t*>(a2a_recv_[q]) + rank * bytes_per_rank;
    if (q == rank) {
      std::memcpy(dst, src, bytes_per_rank);
      done = std::max(done, t0 + static_cast<SimTime>(std::llround(
                                bytes_per_rank * cfg.tuple_copy_ns_per_byte)));
      continue;
    }
    const net::TransferWindow egress =
        fabric_->node(rank_nodes_[rank]).egress().Reserve(t0, bytes_per_rank);
    const net::TransferWindow ingress =
        fabric_->node(rank_nodes_[q])
            .ingress()
            .Reserve(egress.end + cfg.propagation_ns, bytes_per_rank);
    std::memcpy(dst, src, bytes_per_rank);
    done = std::max(done, ingress.end);
  }
  clock->AdvanceTo(done);
  // The collective returns together on all ranks.
  BarrierJoin(alltoall_exit_, clock);
  return Status::OK();
}

StatusOr<MpiWindow*> MpiEnv::CreateWindow(size_t bytes) {
  windows_.push_back(std::make_unique<MpiWindow>(this, bytes));
  return windows_.back().get();
}

Status MpiEnv::Put(int src_rank, const void* buf, size_t bytes, int dst_rank,
                   uint64_t remote_offset, MpiWindow* window,
                   VirtualClock* clock) {
  if (remote_offset + bytes > window->bytes()) {
    return Status::OutOfRange("put beyond window");
  }
  ChargeCallOverhead(src_rank, clock);
  const net::SimConfig& cfg = config();
  const net::TransferWindow egress =
      fabric_->node(rank_nodes_[src_rank])
          .egress()
          .Reserve(clock->now() + cfg.nic_process_ns, bytes);
  const net::TransferWindow ingress =
      fabric_->node(rank_nodes_[dst_rank])
          .ingress()
          .Reserve(egress.end + cfg.propagation_ns, bytes);
  std::memcpy(window->local(dst_rank) + remote_offset, buf, bytes);
  auto& arrival = *window->last_put_arrival_[dst_rank];
  SimTime prev = arrival.load(std::memory_order_relaxed);
  while (prev < ingress.end &&
         !arrival.compare_exchange_weak(prev, ingress.end,
                                        std::memory_order_acq_rel)) {
  }
  return Status::OK();
}

Status MpiEnv::Fence(int rank, MpiWindow* window, VirtualClock* clock) {
  ChargeCallOverhead(rank, clock);
  // All ranks enter the fence (ensures every put was posted), then every
  // rank observes the completion of all puts cluster-wide.
  BarrierJoin(window->fence_barrier_, clock);
  SimTime max_arrival = 0;
  for (size_t r = 0; r < rank_nodes_.size(); ++r) {
    max_arrival = std::max(
        max_arrival,
        window->last_put_arrival_[r]->load(std::memory_order_acquire));
  }
  clock->AdvanceTo(max_arrival);
  BarrierJoin(window->fence_barrier_, clock);
  return Status::OK();
}

MpiWindow::MpiWindow(MpiEnv* env, size_t bytes) : env_(env), bytes_(bytes) {
  const size_t n = env_->rank_nodes_.size();
  memory_.reserve(n);
  last_put_arrival_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    memory_.push_back(std::make_unique<uint8_t[]>(bytes));
    std::memset(memory_.back().get(), 0, bytes);
    last_put_arrival_.push_back(std::make_unique<std::atomic<SimTime>>(0));
    env_->fabric_->node(env_->rank_nodes_[r]).AddRegisteredBytes(bytes);
  }
}

MpiWindow::~MpiWindow() {
  for (size_t r = 0; r < memory_.size(); ++r) {
    env_->fabric_->node(env_->rank_nodes_[r]).SubRegisteredBytes(bytes_);
  }
}

}  // namespace dfi::mpi
