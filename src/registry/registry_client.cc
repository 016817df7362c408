#include "registry/registry_client.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace dfi::reg {

RegistryClient::RegistryClient(RegistryService* service,
                               RegistryClientOptions options,
                               VirtualClock* clock)
    : service_(service), options_(options), clock_(clock) {
  DFI_CHECK(service_ != nullptr);
  const uint32_t shards = service_->options().num_shards;
  next_seq_.assign(shards, 0);
  shard_epochs_.assign(shards, 1);
}

void RegistryClient::SleepUntilVt(SimTime from, SimTime until) {
  if (until > from) {
    // Nobody ever wakes backoff_wp_, so this is a pure virtual-time sleep:
    // the park returns exactly when the engine reaches `until`.
    exec::Engine::Park(&backoff_wp_, [] { return false; }, from, until);
  }
  if (clock_) clock_->AdvanceTo(until);
}

void RegistryClient::ObserveEpoch(ShardId shard, Epoch epoch) {
  if (epoch <= shard_epochs_[shard]) return;
  stats_.failovers += epoch - shard_epochs_[shard];
  shard_epochs_[shard] = epoch;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.shard == shard && it->second.epoch < epoch) {
      it = cache_.erase(it);
      ++stats_.cache_invalidations;
    } else {
      ++it;
    }
  }
}

Status RegistryClient::CacheLookup(const std::string& name,
                                   std::shared_ptr<FlowStateBase>* state) {
  if (!options_.enable_cache) return Status::NotFound("cache disabled");
  const ShardId shard = service_->ShardOf(name);
  const ShardView view = service_->ViewAt(shard, NowVt());
  ObserveEpoch(shard, view.epoch);
  auto it = cache_.find(name);
  if (it == cache_.end()) {
    ++stats_.cache_misses;
    return Status::NotFound("not cached");
  }
  const CacheEntry& e = it->second;
  if (e.epoch != view.epoch) {
    cache_.erase(it);
    ++stats_.cache_invalidations;
    ++stats_.cache_misses;
    return Status::NotFound("cache entry fenced");
  }
  ++stats_.cache_hits;
  *state = e.state;
  return Status::OK();
}

void RegistryClient::CacheInsert(const std::string& name, ShardId shard,
                                 const OpResult& r) {
  if (!options_.enable_cache || !r.status.ok() || r.state == nullptr) return;
  CacheEntry e;
  e.state = r.state;
  e.shard = shard;
  e.epoch = shard_epochs_[shard];
  cache_[name] = std::move(e);
}

void RegistryClient::CacheErase(const std::string& name) {
  if (!options_.enable_cache) return;
  cache_.erase(name);
}

RegistryClientStats RegistryClient::stats() const { return stats_; }

Status RegistryClient::ExecuteShardBatch(ShardId shard, std::vector<Op> ops,
                                         std::vector<OpResult>* results) {
  results->clear();
  if (ops.empty()) return Status::OK();
  BatchRequest req;
  req.client_id = options_.client_id;
  req.client_node = options_.node;
  req.shard = shard;
  req.base_seq = next_seq_[shard];
  req.ops = std::move(ops);
  // Sequence numbers are consumed whether or not the batch lands: a later
  // batch after a give-up jumps the dedup window forward (the shards accept
  // forward jumps, they only reject re-use).
  next_seq_[shard] = req.base_seq + req.ops.size();

  SimTime now = NowVt();
  const SimTime deadline = now + kRetryDeadlineNs;
  SimTime backoff = kBackoffInitialNs;
  ShardView view = service_->ViewAt(shard, now);
  ObserveEpoch(shard, view.epoch);
  req.target_replica = view.primary;

  while (true) {
    if (!view.available) {
      if (clock_) clock_->AdvanceTo(now);
      return Status::PeerFailed("registry shard " + std::to_string(shard) +
                                ": every replica has crashed");
    }
    ++stats_.rpcs;
    BatchResult res = service_->Execute(req, now);
    if (res.transport.ok() && !res.wrong_primary) {
      ObserveEpoch(shard, res.epoch);
      if (clock_) clock_->AdvanceTo(res.complete_at);
      *results = std::move(res.results);
      return Status::OK();
    }
    if (res.wrong_primary) {
      // A live non-primary answered with a redirect: refresh the view and
      // retry at the primary immediately (the redirect already cost a
      // round trip; no backoff).
      ObserveEpoch(shard, res.epoch);
      now = std::max(now, res.complete_at);
      view = service_->ViewAt(shard, now);
      ObserveEpoch(shard, view.epoch);
      req.target_replica = view.primary;
      continue;
    }
    if (res.transport.code() != StatusCode::kUnavailable) {
      // Rejected before execution (invalid batch, whole shard gone):
      // terminal, retrying cannot help.
      if (clock_) clock_->AdvanceTo(std::max(now, res.complete_at));
      return res.transport;
    }
    // Silence: the target was dead, unreachable, or died mid-batch. Back
    // off (capped exponential) and retry at whoever is primary by then —
    // the dedup windows make the retry exactly-once.
    ++stats_.retries;
    const SimTime observed = std::max(now, res.complete_at);
    const SimTime wake = observed + backoff;
    backoff = std::min(backoff * 2, kBackoffCapNs);
    if (wake > deadline) {
      SleepUntilVt(now, observed);
      return Status::DeadlineExceeded(
          "registry batch to shard " + std::to_string(shard) +
          " exceeded its retry deadline (" +
          std::to_string(kRetryDeadlineNs) + "ns)");
    }
    SleepUntilVt(now, wake);
    now = wake;
    view = service_->ViewAt(shard, now);
    ObserveEpoch(shard, view.epoch);
    req.target_replica = view.primary;
  }
}

StatusOr<std::vector<OpResult>> RegistryClient::ExecuteOps(
    std::vector<Op> ops) {
  // Group per shard (ordered for determinism), one batched RPC each,
  // scatter per-op results back into input order. Shard-level transport
  // failures fold into the affected ops' statuses — partial success is a
  // result, not an exception.
  std::map<ShardId, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < ops.size(); ++i) {
    by_shard[service_->ShardOf(ops[i].name)].push_back(i);
  }
  std::vector<OpResult> out(ops.size());
  for (auto& [shard, idxs] : by_shard) {
    std::vector<Op> batch;
    batch.reserve(idxs.size());
    for (size_t i : idxs) batch.push_back(std::move(ops[i]));
    std::vector<OpResult> results;
    const Status s = ExecuteShardBatch(shard, std::move(batch), &results);
    if (!s.ok()) {
      for (size_t i : idxs) out[i].status = s;
      continue;
    }
    for (size_t k = 0; k < idxs.size(); ++k) {
      out[idxs[k]] = std::move(results[k]);
    }
  }
  return out;
}

Status RegistryClient::Publish(const std::string& name,
                               std::shared_ptr<FlowStateBase> state) {
  Op op;
  op.kind = OpKind::kPublish;
  op.name = name;
  op.state = std::move(state);
  std::vector<Op> ops;
  ops.push_back(std::move(op));
  std::vector<OpResult> results;
  DFI_RETURN_IF_ERROR(
      ExecuteShardBatch(service_->ShardOf(name), std::move(ops), &results));
  return results[0].status;
}

StatusOr<std::shared_ptr<FlowStateBase>> RegistryClient::Retrieve(
    const std::string& name) {
  std::shared_ptr<FlowStateBase> cached;
  if (CacheLookup(name, &cached).ok()) return cached;
  Op op;
  op.kind = OpKind::kRetrieve;
  op.name = name;
  std::vector<Op> ops;
  ops.push_back(std::move(op));
  const ShardId shard = service_->ShardOf(name);
  std::vector<OpResult> results;
  DFI_RETURN_IF_ERROR(ExecuteShardBatch(shard, std::move(ops), &results));
  OpResult& r = results[0];
  if (!r.status.ok()) return r.status;
  CacheInsert(name, shard, r);
  return r.state;
}

Status RegistryClient::Close(const std::string& name) {
  CacheErase(name);
  Op op;
  op.kind = OpKind::kClose;
  op.name = name;
  std::vector<Op> ops;
  ops.push_back(std::move(op));
  std::vector<OpResult> results;
  DFI_RETURN_IF_ERROR(
      ExecuteShardBatch(service_->ShardOf(name), std::move(ops), &results));
  return results[0].status;
}

StatusOr<std::vector<OpResult>> RegistryClient::PublishBatch(
    const std::vector<std::pair<std::string, std::shared_ptr<FlowStateBase>>>&
        flows) {
  std::vector<Op> ops;
  ops.reserve(flows.size());
  for (const auto& [name, state] : flows) {
    Op op;
    op.kind = OpKind::kPublish;
    op.name = name;
    op.state = state;
    ops.push_back(std::move(op));
  }
  return ExecuteOps(std::move(ops));
}

StatusOr<std::vector<OpResult>> RegistryClient::RetrieveBatch(
    const std::vector<std::string>& names) {
  std::vector<OpResult> out(names.size());
  std::vector<Op> ops;
  std::vector<size_t> miss_index;
  for (size_t i = 0; i < names.size(); ++i) {
    std::shared_ptr<FlowStateBase> cached;
    if (CacheLookup(names[i], &cached).ok()) {
      out[i].state = std::move(cached);
      continue;
    }
    Op op;
    op.kind = OpKind::kRetrieve;
    op.name = names[i];
    ops.push_back(std::move(op));
    miss_index.push_back(i);
  }
  if (!ops.empty()) {
    DFI_ASSIGN_OR_RETURN(std::vector<OpResult> fetched,
                         ExecuteOps(std::move(ops)));
    for (size_t k = 0; k < miss_index.size(); ++k) {
      const size_t i = miss_index[k];
      out[i] = std::move(fetched[k]);
      CacheInsert(names[i], service_->ShardOf(names[i]), out[i]);
    }
  }
  return out;
}

StatusOr<std::vector<OpResult>> RegistryClient::CloseBatch(
    const std::vector<std::string>& names) {
  std::vector<Op> ops;
  ops.reserve(names.size());
  for (const std::string& name : names) {
    CacheErase(name);
    Op op;
    op.kind = OpKind::kClose;
    op.name = name;
    ops.push_back(std::move(op));
  }
  return ExecuteOps(std::move(ops));
}

}  // namespace dfi::reg
