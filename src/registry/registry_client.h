#ifndef DFI_REGISTRY_REGISTRY_CLIENT_H_
#define DFI_REGISTRY_REGISTRY_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exec/engine.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "registry/registry_service.h"
#include "registry/registry_types.h"

namespace dfi::reg {

/// Per-call retry budget (virtual ns): total time a batch may spend on
/// silence/backoff before giving up with kDeadlineExceeded.
inline constexpr SimTime kRetryDeadlineNs = 50'000'000;
/// Capped exponential backoff between retries after observed silence.
inline constexpr SimTime kBackoffInitialNs = 2'000;
inline constexpr SimTime kBackoffCapNs = 1'000'000;

struct RegistryClientOptions {
  /// Dedup-window identity at the shards. Every client of one service must
  /// use a distinct id.
  uint64_t client_id = 0;
  /// Fabric node the client runs on; kNoNode for driver-thread clients
  /// (no request/reply hop cost, always reachable).
  net::NodeId node = kNoNode;
  /// Client-side read cache, fenced by shard epoch. Disable for loopback
  /// deployments: their epoch never changes, so a cached entry would never
  /// be invalidated by a failover.
  bool enable_cache = true;
};

struct RegistryClientStats {
  uint64_t rpcs = 0;            // Execute() round trips issued
  uint64_t retries = 0;         // re-sends after observed silence
  /// Shard-epoch advances observed, from a redirect, a reply or a fresh
  /// view: one per replica crash the client saw.
  uint64_t failovers = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;    // cacheable retrieves that went to the wire
  uint64_t cache_invalidations = 0;  // entries dropped on an epoch bump
};

/// Client stub of the sharded control plane: batches ops per shard, caches
/// retrieved flow state (fenced by shard epoch), follows wrong-primary
/// redirects, and turns observed silence into deadline-bounded retries with
/// capped exponential backoff. The only waiting is the retry backoff: a
/// virtual-time park inside an engine task.
///
/// Concurrency: a client keeps one logical FIFO connection per shard — the
/// dedup windows require per-client sequence numbers to arrive in order.
/// Give each emulated actor its own client (distinct client_id); sharing
/// one client across engine fibers is only safe in loopback mode, where no
/// call ever parks in the middle of a batch.
class RegistryClient {
 public:
  explicit RegistryClient(RegistryService* service,
                          RegistryClientOptions options = {},
                          VirtualClock* clock = nullptr);

  RegistryClient(const RegistryClient&) = delete;
  RegistryClient& operator=(const RegistryClient&) = delete;

  const RegistryClientOptions& options() const { return options_; }

  // ---- Single-op convenience (one-op batches) ---------------------------
  Status Publish(const std::string& name,
                 std::shared_ptr<FlowStateBase> state);
  StatusOr<std::shared_ptr<FlowStateBase>> Retrieve(const std::string& name);
  Status Close(const std::string& name);

  // ---- Batched API (grouped per shard, one RPC per shard) ---------------
  /// Publishes `flows`; results in input order.
  StatusOr<std::vector<OpResult>> PublishBatch(
      const std::vector<std::pair<std::string,
                                  std::shared_ptr<FlowStateBase>>>& flows);
  StatusOr<std::vector<OpResult>> RetrieveBatch(
      const std::vector<std::string>& names);
  StatusOr<std::vector<OpResult>> CloseBatch(
      const std::vector<std::string>& names);

  RegistryClientStats stats() const;

 private:
  struct CacheEntry {
    std::shared_ptr<FlowStateBase> state;
    ShardId shard = 0;
    Epoch epoch = 0;
  };

  SimTime NowVt() const { return clock_ ? clock_->now() : 0; }

  /// Sends `ops` (all owned by `shard`) as one batch; retries through
  /// redirects and silence until success, a terminal error, or the retry
  /// deadline. On success fills `results` (one per op) and advances the
  /// clock to the reply arrival.
  Status ExecuteShardBatch(ShardId shard, std::vector<Op> ops,
                           std::vector<OpResult>* results);

  /// Groups `ops` by owning shard (of op.name), executes one batch per
  /// shard, scatters per-op results back into input order.
  StatusOr<std::vector<OpResult>> ExecuteOps(std::vector<Op> ops);

  /// Records an epoch observed in a reply/view for `shard`: counts the
  /// advance as failovers and fences the cache.
  void ObserveEpoch(ShardId shard, Epoch epoch);

  /// Deterministic virtual sleep until `until`: parks on a private
  /// WaitPoint with a timer, then charges the clock.
  void SleepUntilVt(SimTime from, SimTime until);

  Status CacheLookup(const std::string& name,
                     std::shared_ptr<FlowStateBase>* state);
  /// Caches a successful retrieve/publish result under the latest epoch
  /// observed for `shard`.
  void CacheInsert(const std::string& name, ShardId shard,
                   const OpResult& r);
  void CacheErase(const std::string& name);

  RegistryService* const service_;
  const RegistryClientOptions options_;
  VirtualClock* const clock_;

  /// Next per-client sequence number of each shard's logical connection.
  std::vector<uint64_t> next_seq_;

  std::unordered_map<std::string, CacheEntry> cache_;
  std::vector<Epoch> shard_epochs_;  // highest epoch observed per shard
  RegistryClientStats stats_;

  exec::WaitPoint backoff_wp_;  // never woken: pure virtual-time sleeps
};

}  // namespace dfi::reg

#endif  // DFI_REGISTRY_REGISTRY_CLIENT_H_
