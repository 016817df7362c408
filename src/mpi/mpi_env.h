#ifndef DFI_MPI_MPI_ENV_H_
#define DFI_MPI_MPI_ENV_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/exec/engine.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "net/fabric.h"
#include "net/link.h"

namespace dfi::mpi {

/// Thread support level, mirroring MPI_Init_thread.
enum class ThreadMode : uint8_t {
  /// One thread per rank calls MPI (MPI_THREAD_SINGLE).
  kSingle,
  /// Multiple threads per rank may call MPI concurrently
  /// (MPI_THREAD_MULTIPLE). All calls serialize on a per-rank latch whose
  /// hold time grows with the number of contending threads — the behavior
  /// the paper measures in Figure 10b.
  kMultiple,
};

class MpiWindow;

/// A mini-MPI over the virtual-time fabric. It implements the *semantics*
/// the paper's Experiment 2 measures — blocking Send/Recv with eager and
/// rendezvous protocols, bulk-synchronous collectives (Alltoall, Barrier),
/// one-sided Put with fence synchronization, process-centric ranks and a
/// contended global latch in MPI_THREAD_MULTIPLE mode — not the full MPI
/// standard (see DESIGN.md's substitution table).
///
/// Usage: construct with one fabric node per rank; drive each rank from its
/// own thread, passing that thread's VirtualClock to every call.
class MpiEnv {
 public:
  MpiEnv(net::Fabric* fabric, std::vector<net::NodeId> rank_nodes,
         ThreadMode mode = ThreadMode::kSingle, uint32_t threads_per_rank = 1);
  ~MpiEnv();

  MpiEnv(const MpiEnv&) = delete;
  MpiEnv& operator=(const MpiEnv&) = delete;

  int size() const { return static_cast<int>(rank_nodes_.size()); }
  ThreadMode mode() const { return mode_; }
  net::Fabric& fabric() { return *fabric_; }
  const net::SimConfig& config() const { return fabric_->config(); }

  // ---- Point-to-point ----------------------------------------------------
  /// Blocking standard-mode send. Eager below the configured threshold
  /// (buffer copied, returns immediately in virtual time); rendezvous above
  /// (blocks until the matching receive is posted).
  Status Send(int src_rank, int dst_rank, int tag, const void* buf,
              size_t bytes, VirtualClock* clock);

  /// Blocking receive of exactly `bytes` from `src_rank` with `tag`.
  Status Recv(int dst_rank, int src_rank, int tag, void* buf, size_t bytes,
              VirtualClock* clock);

  // ---- Collectives (bulk synchronous) -------------------------------------
  /// Every rank contributes `bytes_per_rank * size()` send bytes and
  /// receives the same; slice r of rank q's send buffer lands at slice q of
  /// rank r's recv buffer. Blocking for all ranks; completion joins all
  /// clocks (the straggler behavior of Figures 11/12).
  Status Alltoall(int rank, const void* sendbuf, void* recvbuf,
                  size_t bytes_per_rank, VirtualClock* clock);

  /// Joins all ranks' clocks to the barrier's completion time.
  Status Barrier(int rank, VirtualClock* clock);

  // ---- One-sided ----------------------------------------------------------
  /// Collective window creation exposing `bytes` of memory on every rank.
  /// Returns the window id.
  StatusOr<MpiWindow*> CreateWindow(size_t bytes);

  /// Non-blocking one-sided put into `dst_rank`'s window memory.
  Status Put(int src_rank, const void* buf, size_t bytes, int dst_rank,
             uint64_t remote_offset, MpiWindow* window, VirtualClock* clock);

  /// Window fence: barrier + completion of all outstanding puts.
  Status Fence(int rank, MpiWindow* window, VirtualClock* clock);

  /// Charges the per-call MPI software overhead, including the latch in
  /// MPI_THREAD_MULTIPLE mode. Public so benchmarks can model extra calls.
  void ChargeCallOverhead(int rank, VirtualClock* clock);

 private:
  friend class MpiWindow;

  struct Message {
    std::vector<uint8_t> data;
    SimTime arrival;      // virtual time the payload is fully received
    bool rendezvous;      // sender blocked, waiting for the receiver
    const void* src_buf;  // rendezvous: sender's buffer (copied at match)
    size_t bytes;
    SimTime sender_post;  // sender's clock at post
    bool matched = false;
    SimTime sender_done = 0;  // rendezvous: when the sender may return
  };

  struct Mailbox {
    exec::WaitPoint wait_point;
    std::deque<std::shared_ptr<Message>> messages;
  };

  /// Generation-counted reusable barrier over all ranks with clock join.
  struct BarrierState {
    exec::WaitPoint wait_point;
    uint32_t waiting = 0;
    uint64_t generation = 0;
    SimTime max_time = 0;
    SimTime release_time = 0;
  };

  Mailbox& mailbox(int src, int dst, int tag);
  /// Barrier over all ranks; returns the joined (max) virtual time.
  SimTime BarrierJoin(BarrierState& state, VirtualClock* clock);

  net::Fabric* const fabric_;
  const std::vector<net::NodeId> rank_nodes_;
  const ThreadMode mode_;
  const uint32_t threads_per_rank_;

  std::map<std::tuple<int, int, int>, std::unique_ptr<Mailbox>> mailboxes_;

  /// Per-rank MPI latch for MPI_THREAD_MULTIPLE (serializes calls in
  /// virtual time; hold time grows with contending threads).
  std::vector<std::unique_ptr<net::LinkScheduler>> latches_;

  BarrierState barrier_;
  BarrierState alltoall_enter_;
  BarrierState alltoall_exit_;
  std::vector<std::unique_ptr<MpiWindow>> windows_;

  // Alltoall exchange area: per-rank buffer pointers for the current round.
  std::vector<const void*> a2a_send_;
  std::vector<void*> a2a_recv_;
};

/// One-sided communication window (MPI_Win): `bytes` of directly writable
/// memory on each rank. Memory counts toward each node's registered bytes.
class MpiWindow {
 public:
  MpiWindow(MpiEnv* env, size_t bytes);
  ~MpiWindow();

  uint8_t* local(int rank) { return memory_[rank].get(); }
  size_t bytes() const { return bytes_; }

 private:
  friend class MpiEnv;
  MpiEnv* const env_;
  const size_t bytes_;
  std::vector<std::unique_ptr<uint8_t[]>> memory_;
  std::vector<std::unique_ptr<std::atomic<SimTime>>> last_put_arrival_;
  MpiEnv::BarrierState fence_barrier_;
};

}  // namespace dfi::mpi

#endif  // DFI_MPI_MPI_ENV_H_
