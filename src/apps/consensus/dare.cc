#include <algorithm>
#include <atomic>
#include <thread>

#include "apps/consensus/internal.h"
#include "common/exec/engine.h"
#include "rdma/queue_pair.h"

namespace dfi::consensus {

using internal::ClientEndpoint;
using internal::ClientOutcome;
using internal::RunLeaderClient;
using internal::SyncClocks;

StatusOr<ConsensusResult> RunDare(DfiRuntime* dfi,
                                  const std::vector<std::string>& nodes,
                                  const ConsensusConfig& cfg) {
  if (nodes.size() != cfg.num_replicas + cfg.num_client_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  if (cfg.num_replicas < 3 || cfg.num_replicas % 2 == 0) {
    return Status::InvalidArgument("need an odd number >= 3 of replicas");
  }
  const uint32_t followers = cfg.num_replicas - 1;
  const uint32_t follower_acks_needed = cfg.num_replicas / 2 + 1 - 1;
  const Endpoint leader_ep{nodes[0], 0};

  // Client communication still needs a transport; DARE uses queue pairs
  // directly in the original, we reuse latency-optimized flows (the cost is
  // the same: one small message each way).
  FlowOptions lat;
  lat.optimization = FlowOptimization::kLatency;
  {
    ShuffleFlowSpec submit;
    submit.name = "dare.submit";
    for (uint32_t c = 0; c < cfg.num_clients; ++c) {
      submit.sources.Append(ClientEndpoint(nodes, cfg, c));
    }
    submit.targets.Append(leader_ep);
    submit.schema = Command::MakeSchema();
    submit.options = lat;
    DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(submit)));

    ShuffleFlowSpec reply;
    reply.name = "dare.reply";
    reply.sources.Append(leader_ep);
    for (uint32_t c = 0; c < cfg.num_clients; ++c) {
      reply.targets.Append(ClientEndpoint(nodes, cfg, c));
    }
    reply.schema = Reply::MakeSchema();
    reply.options = lat;
    reply.routing = [](TupleView t, uint32_t m) {
      return t.Get<uint16_t>(0) % m;
    };
    DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(reply)));
  }

  // One-sided replication substrate: a log region on every follower,
  // written directly by the leader's RC queue pairs.
  const uint64_t total_requests =
      static_cast<uint64_t>(cfg.num_clients) * cfg.requests_per_client;
  const size_t log_bytes = (total_requests + 16) * sizeof(Command);
  rdma::RdmaEnv& env = dfi->rdma();
  auto leader_node = dfi->fabric().ResolveAddress(nodes[0]);
  DFI_RETURN_IF_ERROR(leader_node.status());
  rdma::RdmaContext* leader_ctx = env.context(*leader_node);
  std::vector<rdma::MemoryRegion*> follower_logs(followers);
  std::vector<rdma::RcQueuePair*> qps(followers);
  for (uint32_t f = 0; f < followers; ++f) {
    auto fnode = dfi->fabric().ResolveAddress(nodes[1 + f]);
    DFI_RETURN_IF_ERROR(fnode.status());
    follower_logs[f] = env.context(*fnode)->AllocateRegion(log_bytes);
    qps[f] = leader_ctx->CreateRcQp(*fnode, leader_ctx->CreateCq());
  }

  std::atomic<bool> failed{false};
  std::vector<ClientOutcome> outcomes(cfg.num_clients);
  exec::ActorGroup actors;

  // ---- Leader: the serializing write protocol -----------------------------
  actors.Spawn("dare.leader", [&] {
    auto submit_tgt = dfi->CreateShuffleTarget("dare.submit", 0);
    auto reply_src = dfi->CreateShuffleSource("dare.reply", 0);
    if (!submit_tgt.ok() || !reply_src.ok()) {
      failed.store(true);
      return;
    }
    KvStore kv;
    uint64_t log_index = 0;
    uint64_t replied = 0;
    TupleView tuple;
    while (replied < total_requests) {
      DFI_CHECK((*submit_tgt)->Consume(&tuple) == ConsumeResult::kOk);
      Command cmd;
      std::memcpy(&cmd, tuple.data(), sizeof(cmd));
      SyncClocks((*submit_tgt)->clock(), (*reply_src)->clock());
      VirtualClock& clock = (*submit_tgt)->clock();
      clock.Advance(cfg.dare_request_overhead_ns);

      Reply rep{};
      rep.client_id = cmd.client_id;
      rep.ok = 1;
      rep.req_id = cmd.req_id;
      if (cmd.is_write) {
        // Writes serialize: append to the leader log, replicate the entry
        // with one-sided writes and wait for a majority before answering —
        // one request at a time (paper: "DARE's write protocol serializes
        // requests"; a mix of reads and writes interrupts the read batches).
        clock.Advance(cfg.dare_write_overhead_ns + cfg.log_append_cost_ns);
        const uint64_t slot = log_index++;
        std::vector<SimTime> acks;
        acks.reserve(followers);
        for (uint32_t f = 0; f < followers; ++f) {
          rdma::WriteDesc desc;
          desc.local = &cmd;
          desc.remote = follower_logs[f]->RefAt(slot * sizeof(Command));
          desc.length = sizeof(Command);
          auto timing = qps[f]->PostWrite(desc, &clock);
          DFI_CHECK(timing.ok()) << timing.status();
          acks.push_back(timing->ack);
        }
        std::sort(acks.begin(), acks.end());
        clock.AdvanceTo(acks[follower_acks_needed - 1]);
        clock.Advance(cfg.kv_op_cost_ns);
        Value v;
        std::memcpy(v.data(), cmd.value, kValueBytes);
        kv.Put(cmd.key, v);
        std::memcpy(rep.value, cmd.value, kValueBytes);
        rep.log_index = slot;
      } else {
        // Reads are served from the leader's state (lease), no replication.
        clock.Advance(cfg.kv_op_cost_ns);
        Value v;
        kv.Get(cmd.key, &v);
        std::memcpy(rep.value, v.data(), kValueBytes);
      }
      SyncClocks((*submit_tgt)->clock(), (*reply_src)->clock());
      DFI_CHECK_OK((*reply_src)->Push(&rep));
      ++replied;
    }
    DFI_CHECK_OK((*reply_src)->Close());
    while ((*submit_tgt)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
    }
  });

  // ---- Clients: strictly sequential (window 1) ----------------------------
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    actors.Spawn("dare.client." + std::to_string(c), [&, c] {
      auto submit_src = dfi->CreateShuffleSource("dare.submit", c);
      auto reply_tgt = dfi->CreateShuffleTarget("dare.reply", c);
      if (!submit_src.ok() || !reply_tgt.ok()) {
        failed.store(true);
        return;
      }
      outcomes[c] = RunLeaderClient(submit_src->get(), reply_tgt->get(), cfg,
                                    c, /*window=*/1);
    });
  }

  actors.Join();
  DFI_RETURN_IF_ERROR(dfi->RemoveFlows({"dare.submit", "dare.reply"}));
  if (failed.load()) return Status::Internal("dare worker failed");

  ConsensusResult result;
  LatencyRecorder all;
  SimTime finish = 0;
  for (auto& o : outcomes) {
    result.completed += o.completed;
    all.Merge(o.latencies);
    finish = std::max(finish, o.finish);
  }
  result.throughput_rps = static_cast<double>(result.completed) * 1e9 /
                          std::max<SimTime>(finish, 1);
  result.median_latency_ns = all.Median();
  result.p95_latency_ns = all.Quantile(0.95);
  return result;
}

}  // namespace dfi::consensus
