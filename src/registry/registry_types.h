#ifndef DFI_REGISTRY_REGISTRY_TYPES_H_
#define DFI_REGISTRY_REGISTRY_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "net/rpc.h"
#include "registry/flow_state.h"

/// Typed request/reply messages of the sharded control plane — the
/// emulation's equivalent of DFI-public's RegistryServer wire protocol
/// (typed RetrieveFlowHandleRequest / CreateFlowRequest messages). A batch
/// is the RPC unit: one client sends up to a few dozen ops for one shard in
/// a single round trip.
namespace dfi::reg {

using ShardId = uint32_t;
/// Shard configuration epoch. Bumped every time a replica of the shard
/// fails over; clients fence cached entries with it.
using Epoch = uint64_t;

/// "No fabric node" — driver-thread clients and loopback deployments.
inline constexpr net::NodeId kNoNode = static_cast<net::NodeId>(-1);

enum class OpKind : uint8_t {
  kPublish,   // name, state
  kRetrieve,  // name
  kClose,     // name
};

/// Returns a one-character mnemonic for trace rendering ('P', 'R', ...).
char OpKindChar(OpKind kind);

/// One control-plane operation.
struct Op {
  OpKind kind = OpKind::kRetrieve;
  std::string name;
  std::shared_ptr<FlowStateBase> state;  // kPublish
};

/// Per-op reply.
struct OpResult {
  Status status;
  std::shared_ptr<FlowStateBase> state;  // kRetrieve
  /// The op's sequence number was already applied (a retry after a primary
  /// crash hit the dedup window): the stored result is returned and nothing
  /// is re-executed — the exactly-once half of the protocol.
  bool duplicate = false;
};

/// One batched RPC: `ops[i]` carries sequence number `base_seq + i` for the
/// shard's per-client dedup window. All ops must map to `shard`.
struct BatchRequest {
  uint64_t client_id = 0;
  uint64_t base_seq = 0;
  net::NodeId client_node = kNoNode;
  ShardId shard = 0;
  /// Replica index within the shard the client believes is primary.
  uint32_t target_replica = 0;
  std::vector<Op> ops;
};

/// Reply to one batched RPC.
struct BatchResult {
  /// OK = a reply was received. kUnavailable = silence (dead / unreachable
  /// / mid-service crash — indistinguishable to the client, who retries).
  /// Other codes = the request was rejected before execution.
  Status transport;
  /// Client-observed completion virtual time (reply arrival, or the time
  /// the silence was established).
  SimTime complete_at = 0;
  /// Shard epoch at service time — the client's cache fencing token.
  Epoch epoch = 0;
  /// The replica was not the shard primary at arrival; `epoch` and the
  /// refreshed view tell the client where to retry.
  bool wrong_primary = false;
  std::vector<OpResult> results;  // one per op iff transport.ok()
};

/// A client's current belief about one shard.
struct ShardView {
  Epoch epoch = 1;
  uint32_t primary = 0;
  net::NodeId primary_node = kNoNode;
  /// False once every replica of the shard has crashed.
  bool available = true;
};

/// One applied mutation/read in the canonical registry event trace.
/// (at, client_id, seq) is a total order: sequence numbers are unique per
/// client and apply times are deterministic in virtual time, so sorting by
/// this key yields the same trace at every worker-pool size.
struct RegistryEvent {
  SimTime at = 0;
  ShardId shard = 0;
  Epoch epoch = 0;
  OpKind kind = OpKind::kRetrieve;
  std::string name;
  uint64_t client_id = 0;
  uint64_t seq = 0;
  StatusCode code = StatusCode::kOk;
};

}  // namespace dfi::reg

#endif  // DFI_REGISTRY_REGISTRY_TYPES_H_
