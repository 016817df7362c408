#ifndef DFI_REGISTRY_REGISTRY_SERVICE_H_
#define DFI_REGISTRY_REGISTRY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/rpc.h"
#include "registry/registry_types.h"

namespace dfi::net {
class Fabric;
}

namespace dfi::reg {

/// Per-op service CPU at a replica (fabric mode only).
inline constexpr SimTime kOpServeNs = 120;
/// Modeled wire size of one op's request/reply record.
inline constexpr uint32_t kOpWireBytes = 96;

struct RegistryServiceOptions {
  /// Number of shards (hash of flow name → shard).
  uint32_t num_shards = 1;
  /// Replicas per shard (1 = unreplicated).
  uint32_t replication = 1;
  /// Fabric placement: `replica_nodes[shard * replication + r]` hosts
  /// replica `r` of `shard`. Empty = loopback mode (no fabric coupling, no
  /// virtual RPC cost — the default for in-process runtimes); when
  /// non-empty it must hold num_shards * replication node ids and a fabric
  /// must be bound.
  std::vector<net::NodeId> replica_nodes;
  /// Retain the full event list for Events()/TraceString(). The rolling
  /// order-insensitive TraceHash() is always maintained; the list costs
  /// memory per applied op, so big churn runs leave this off.
  bool record_trace = false;
};

/// The sharded, replicated control plane behind the DFI flow registry.
///
/// The namespace is hash-partitioned into `num_shards` shards; each shard
/// is `replication` replica stores (each a name -> flow-state map) with a
/// primary/backup epoch protocol:
///
///   - The primary of shard S at virtual time t is its lowest-index replica
///     whose fabric node is alive at t under the FaultPlan; the shard's
///     epoch is 1 + the number of its replicas crashed by t. Both are pure
///     functions of (plan, t) — failover is deterministic and needs no
///     election traffic in the emulation.
///   - Mutations are applied at the primary and synchronously replicated to
///     every backup alive at the (virtual) replication delivery time, so a
///     single crash loses nothing once `replication >= 2`.
///   - Every op carries (client_id, seq). Replicas keep a per-client dedup
///     window (applied-through watermark + the last batch's results); a
///     retry after a mid-batch primary crash re-sends the batch, the new
///     primary skips the already-replicated prefix and applies the rest —
///     exactly-once, or a clean kDeadlineExceeded/kPeerFailed.
///   - Replies carry the shard epoch; clients fence their caches with it.
///
/// Execute() is the entire "wire": the client's virtual send time goes in,
/// the client-observed completion time comes out, and every intermediate
/// step (request hop, per-op service, replication delivery, reply hop) is
/// checked against the FaultPlan at its own virtual time via net::RpcPath.
/// A crash mid-batch applies a prefix and returns silence — exactly what a
/// real client of a real shard server would observe.
class RegistryService {
 public:
  /// `fabric` may be null only in loopback mode (empty replica_nodes).
  explicit RegistryService(net::Fabric* fabric,
                           RegistryServiceOptions options = {});

  RegistryService(const RegistryService&) = delete;
  RegistryService& operator=(const RegistryService&) = delete;

  const RegistryServiceOptions& options() const { return options_; }

  /// Shard owning `name` (stable hash; never changes at runtime).
  ShardId ShardOf(const std::string& name) const;

  /// The shard's primary/epoch at virtual time `at` — the pure failover
  /// function. Cheap enough to call per cache hit.
  ShardView ViewAt(ShardId shard, SimTime at) const;

  /// Executes one batched RPC sent at virtual time `start`. See class
  /// comment for the failure model.
  BatchResult Execute(const BatchRequest& request, SimTime start);

  /// Total live flows across shard primaries at `at` (audit/metrics).
  size_t TotalFlows(SimTime at) const;

  /// Fabric node hosting replica `replica` of `shard`; kNoNode in loopback.
  net::NodeId ReplicaNode(ShardId shard, uint32_t replica) const;

  // ---- Determinism instrumentation --------------------------------------
  /// Order-insensitive hash over every applied op (commutative sum of
  /// per-event hashes): identical across worker-pool sizes whenever the
  /// workload's per-name writers are single (the engine determinism
  /// contract), without retaining the event list.
  uint64_t TraceHash() const {
    return trace_hash_.load(std::memory_order_relaxed);
  }
  /// Applied (non-duplicate) ops and suppressed duplicates, service-wide.
  uint64_t applied_ops() const {
    return applied_ops_.load(std::memory_order_relaxed);
  }
  uint64_t duplicates_suppressed() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  /// The canonical event trace sorted by (at, client, seq); requires
  /// options.record_trace.
  std::vector<RegistryEvent> Events() const;
  /// Renders Events() one line per event.
  std::string TraceString() const;

 private:
  struct ClientWindow {
    uint64_t applied_through = 0;  // every seq < this has been applied
    uint64_t last_base = UINT64_MAX;
    std::vector<OpResult> last_results;
  };

  /// One replica store: the published flows plus the dedup windows.
  struct Replica {
    std::unordered_map<std::string, std::shared_ptr<FlowStateBase>> flows;
    std::unordered_map<uint64_t, ClientWindow> clients;
  };

  struct Shard {
    std::vector<std::unique_ptr<Replica>> replicas;
    std::vector<RegistryEvent> events;  // iff record_trace
  };

  /// Executes `op` against `replica`'s flows (no dedup bookkeeping — the
  /// caller owns the window).
  static OpResult ApplyOp(Replica* replica, const Op& op);

  /// Applies one op with dedup at the primary and replicates it to live
  /// backups.
  OpResult ApplyWithDedup(Shard* shard, ShardId shard_id, uint32_t primary,
                          const BatchRequest& request, size_t op_index,
                          SimTime at, Epoch epoch);

  uint32_t PrimaryIndexAt(ShardId shard, SimTime at) const;
  Epoch EpochAt(ShardId shard, SimTime at) const;
  bool NodeAliveAt(net::NodeId node, SimTime at) const;

  void RecordEvent(Shard* shard, ShardId shard_id, Epoch epoch,
                   const Op& op, uint64_t client_id, uint64_t seq,
                   StatusCode code, SimTime at);

  net::Fabric* const fabric_;
  const RegistryServiceOptions options_;
  const net::RpcPath path_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> trace_hash_{0};
  std::atomic<uint64_t> applied_ops_{0};
  std::atomic<uint64_t> duplicates_{0};
};

}  // namespace dfi::reg

#endif  // DFI_REGISTRY_REGISTRY_SERVICE_H_
