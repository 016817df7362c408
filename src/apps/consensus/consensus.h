#ifndef DFI_APPS_CONSENSUS_CONSENSUS_H_
#define DFI_APPS_CONSENSUS_CONSENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/dfi_runtime.h"

namespace dfi::consensus {

/// Shared configuration of the state-machine-replication experiments
/// (paper section 6.3.2: five replicas, six clients on three nodes,
/// 64-byte requests, YCSB read-dominated 95/5).
struct ConsensusConfig {
  uint32_t num_replicas = 5;
  uint32_t num_clients = 6;
  uint32_t num_client_nodes = 3;
  uint32_t requests_per_client = 2000;
  /// Outstanding requests per client. DARE clients are strictly sequential
  /// (window 1 enforced; paper: "each DARE client cannot submit a new
  /// request until it has received the result from its previous request").
  uint32_t client_window = 8;
  /// Virtual think time between request submissions — the load knob used
  /// to sweep the throughput/latency curve of Figure 15.
  SimTime think_time_ns = 0;
  double write_fraction = 0.05;
  uint64_t key_space = 100000;
  uint64_t seed = 7;

  // ---- Cost model ---------------------------------------------------------
  SimTime kv_op_cost_ns = 100;
  SimTime log_append_cost_ns = 50;
  /// Per-message protocol logic at a replica.
  SimTime replica_logic_cost_ns = 60;
  /// DARE only: extra serialization in the leader's write protocol.
  SimTime dare_write_overhead_ns = 700;
  /// DARE only: per-request software overhead of the hand-crafted protocol
  /// (request detection by polling, log management).
  SimTime dare_request_overhead_ns = 3200;
};

/// Outcome of one run at one load point.
struct ConsensusResult {
  uint64_t completed = 0;
  /// Requests per second of *virtual* time.
  double throughput_rps = 0;
  SimTime median_latency_ns = 0;
  SimTime p95_latency_ns = 0;
  /// Multi-Paxos failover only (0 otherwise): requests the clients replayed
  /// on the term-2 flows, and the virtual time from the leader crash to the
  /// first client's / every client's first term-2 reply.
  uint64_t resubmitted = 0;
  SimTime recovery_first_reply_ns = 0;
  SimTime recovery_all_clients_ns = 0;
};

/// Classical leader-based Multi-Paxos modeled exactly on the paper's
/// Figure 3: an N:1 shuffle flow for client submissions, a replicate flow
/// (multicast) for proposals, an N:1 shuffle flow for votes and a 1:N
/// shuffle flow for replies.
///
/// The failure-free run is the empty FaultPlan: it publishes exactly those
/// four flows (mp.submit, mp.propose, mp.vote, mp.reply). A leader crash is
/// scripted on the fabric's plan before the call
/// (`dfi->fabric().fault_plan().CrashNode(<node of nodes[0]>, at)`). Then
/// the run also publishes a term-2 flow set (mp.t2.*) led by replica 1,
/// every flow gets a 50 ms virtual block deadline, survivors observe the
/// crash through kPeerFailed / poisoned teardown (never a hang) and fail
/// over, and each client resubmits its unacknowledged requests on term 2.
/// The fault trace stays on the plan (FaultPlan::TraceString).
///
/// `nodes` must hold num_replicas + num_client_nodes fabric addresses
/// (replicas first).
StatusOr<ConsensusResult> RunMultiPaxos(DfiRuntime* dfi,
                                        const std::vector<std::string>& nodes,
                                        const ConsensusConfig& config);

/// NOPaxos normal operation on DFI's globally-ordered replicate flow (the
/// OUM primitive, paper sections 4.3.2/5.4): clients multicast requests
/// through the tuple sequencer; replicas consume in sequence order; the
/// leader answers while followers ack directly to the clients, which
/// collect the majority themselves. Lost OUM segments are recovered through
/// the flow's gap handling.
StatusOr<ConsensusResult> RunNoPaxos(DfiRuntime* dfi,
                                     const std::vector<std::string>& nodes,
                                     const ConsensusConfig& config);

/// DARE-like baseline [28]: a replicated KV store on a hand-crafted
/// consensus protocol over one-sided RDMA. Reproduces the two properties
/// the paper attributes DARE's disadvantage to — strictly sequential
/// clients and a serializing leader write protocol.
StatusOr<ConsensusResult> RunDare(DfiRuntime* dfi,
                                  const std::vector<std::string>& nodes,
                                  const ConsensusConfig& config);

}  // namespace dfi::consensus

#endif  // DFI_APPS_CONSENSUS_CONSENSUS_H_
