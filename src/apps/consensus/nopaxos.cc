#include <atomic>
#include <thread>

#include "apps/consensus/internal.h"
#include "common/exec/engine.h"

namespace dfi::consensus {

using internal::ClientEndpoint;
using internal::ClientOutcome;
using internal::MakeCommand;
using internal::SyncClocks;
using internal::TupleDrain;

StatusOr<ConsensusResult> RunNoPaxos(DfiRuntime* dfi,
                                     const std::vector<std::string>& nodes,
                                     const ConsensusConfig& cfg) {
  if (nodes.size() != cfg.num_replicas + cfg.num_client_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  if (cfg.num_replicas < 3 || cfg.num_replicas % 2 == 0) {
    return Status::InvalidArgument("need an odd number >= 3 of replicas");
  }
  // The client needs the leader's result plus matching view-acks from a
  // majority; with the leader's own answer counted, that is majority-1
  // follower acks.
  const uint32_t needed_acks = cfg.num_replicas / 2 + 1 - 1;

  FlowOptions lat;
  lat.optimization = FlowOptimization::kLatency;
  {
    // Ordered unreliable multicast (OUM): clients -> all replicas through
    // DFI's globally-ordered replicate flow and its tuple sequencer.
    ReplicateFlowSpec oum;
    oum.name = "np.oum";
    for (uint32_t c = 0; c < cfg.num_clients; ++c) {
      oum.sources.Append(ClientEndpoint(nodes, cfg, c));
    }
    for (uint32_t r = 0; r < cfg.num_replicas; ++r) {
      oum.targets.Append(Endpoint{nodes[r], 0});
    }
    oum.schema = Command::MakeSchema();
    oum.options = lat;
    oum.options.use_multicast = true;
    oum.options.global_ordering = true;
    // Deep receive pools: all clients' windows can be outstanding at once
    // (NOPaxos pre-posts large receive queues on every replica).
    oum.options.segments_per_ring = 256;
    DFI_RETURN_IF_ERROR(dfi->InitReplicateFlow(std::move(oum)));

    // Leader result back to the client.
    ShuffleFlowSpec reply;
    reply.name = "np.reply";
    reply.sources.Append(Endpoint{nodes[0], 0});
    for (uint32_t c = 0; c < cfg.num_clients; ++c) {
      reply.targets.Append(ClientEndpoint(nodes, cfg, c));
    }
    reply.schema = Reply::MakeSchema();
    reply.options = lat;
    reply.routing = [](TupleView t, uint32_t m) {
      return t.Get<uint16_t>(0) % m;
    };
    DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(reply)));

    // Follower view-acks straight to the clients — the load that saturates
    // the Multi-Paxos leader is collected by the clients themselves here
    // (paper section 6.3.2).
    ShuffleFlowSpec ack;
    ack.name = "np.ack";
    for (uint32_t r = 1; r < cfg.num_replicas; ++r) {
      ack.sources.Append(Endpoint{nodes[r], 0});
    }
    for (uint32_t c = 0; c < cfg.num_clients; ++c) {
      ack.targets.Append(ClientEndpoint(nodes, cfg, c));
    }
    ack.schema = Vote::MakeSchema();
    ack.options = lat;
    ack.routing = [](TupleView t, uint32_t m) {
      return t.Get<uint16_t>(2) % m;  // field 2: client_id
    };
    DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(ack)));
  }

  std::atomic<bool> failed{false};
  std::vector<ClientOutcome> outcomes(cfg.num_clients);
  exec::ActorGroup actors;

  // ---- Replicas -----------------------------------------------------------
  for (uint32_t r = 0; r < cfg.num_replicas; ++r) {
    actors.Spawn("np.replica." + std::to_string(r), [&, r] {
      auto oum_tgt = dfi->CreateReplicateTarget("np.oum", r);
      if (!oum_tgt.ok()) {
        failed.store(true);
        return;
      }
      const bool is_leader = r == 0;
      std::unique_ptr<ShuffleSource> out_src;
      if (is_leader) {
        auto src = dfi->CreateShuffleSource("np.reply", 0);
        if (!src.ok()) {
          failed.store(true);
          return;
        }
        out_src = std::move(src).value();
      } else {
        auto src = dfi->CreateShuffleSource("np.ack", r - 1);
        if (!src.ok()) {
          failed.store(true);
          return;
        }
        out_src = std::move(src).value();
      }

      KvStore kv;
      uint64_t log_length = 0;
      SegmentView seg;
      const Schema schema = Command::MakeSchema();
      for (;;) {
        const ConsumeResult res = (*oum_tgt)->ConsumeSegment(&seg);
        if (res == ConsumeResult::kFlowEnd) break;
        DFI_CHECK(res == ConsumeResult::kOk);
        Command cmd;
        std::memcpy(&cmd, seg.payload, sizeof(cmd));
        SyncClocks((*oum_tgt)->clock(), out_src->clock());
        (*oum_tgt)->clock().Advance(cfg.replica_logic_cost_ns +
                                    cfg.log_append_cost_ns);
        out_src->clock().AdvanceTo((*oum_tgt)->clock().now());
        const uint64_t slot = log_length++;
        if (is_leader) {
          // Execute speculatively in OUM order and answer the client.
          out_src->clock().Advance(cfg.kv_op_cost_ns);
          Reply rep{};
          rep.client_id = cmd.client_id;
          rep.ok = 1;
          rep.req_id = cmd.req_id;
          rep.log_index = slot;
          if (cmd.is_write) {
            Value v;
            std::memcpy(v.data(), cmd.value, kValueBytes);
            kv.Put(cmd.key, v);
            std::memcpy(rep.value, cmd.value, kValueBytes);
          } else {
            Value v;
            kv.Get(cmd.key, &v);
            std::memcpy(rep.value, v.data(), kValueBytes);
          }
          DFI_CHECK_OK(out_src->Push(&rep));
        } else {
          Vote ack{seg.sequence, static_cast<uint16_t>(r), cmd.client_id,
                   cmd.req_id};
          DFI_CHECK_OK(out_src->Push(&ack));
        }
      }
      DFI_CHECK_OK(out_src->Close());
    });
  }

  // ---- Clients ------------------------------------------------------------
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    actors.Spawn("np.client." + std::to_string(c), [&, c] {
      auto oum_src = dfi->CreateReplicateSource("np.oum", c);
      auto reply_tgt = dfi->CreateShuffleTarget("np.reply", c);
      auto ack_tgt = dfi->CreateShuffleTarget("np.ack", c);
      if (!oum_src.ok() || !reply_tgt.ok() || !ack_tgt.ok()) {
        failed.store(true);
        return;
      }
      auto sync3 = [&] {
        SimTime t = (*oum_src)->clock().now();
        t = std::max(t, (*reply_tgt)->clock().now());
        t = std::max(t, (*ack_tgt)->clock().now());
        (*oum_src)->clock().AdvanceTo(t);
        (*reply_tgt)->clock().AdvanceTo(t);
        (*ack_tgt)->clock().AdvanceTo(t);
        return t;
      };

      ClientOutcome& out = outcomes[c];
      const auto requests = bench::GenerateYcsbRequests(
          cfg.requests_per_client, cfg.key_space, cfg.write_fraction, 0.0,
          cfg.seed + c);
      std::vector<SimTime> send_time(cfg.requests_per_client);
      std::vector<SimTime> last_arrival(cfg.requests_per_client, 0);
      std::vector<uint8_t> got_reply(cfg.requests_per_client, 0);
      std::vector<uint8_t> ack_count(cfg.requests_per_client, 0);
      std::vector<uint8_t> completed(cfg.requests_per_client, 0);
      TupleDrain<Reply> replies(reply_tgt->get());
      TupleDrain<Vote> acks(ack_tgt->get());
      out.latencies.Reserve(cfg.requests_per_client);
      uint32_t sent = 0, done = 0;

      auto maybe_complete = [&](uint32_t req) {
        if (completed[req] || !got_reply[req] ||
            ack_count[req] < needed_acks) {
          return;
        }
        completed[req] = 1;
        sync3();
        out.latencies.Record(
            std::max<SimTime>(last_arrival[req] - send_time[req], 0));
        ++done;
      };

      while (done < cfg.requests_per_client) {
        const uint64_t epoch = exec::ProgressEpoch();
        bool progressed = false;
        while (sent < cfg.requests_per_client &&
               sent - done < cfg.client_window) {
          sync3();
          if (sent >= cfg.client_window) {
            (*oum_src)->clock().Advance(cfg.think_time_ns);
          }
          const Command cmd =
              MakeCommand(static_cast<uint16_t>(c), sent, requests[sent]);
          send_time[sent] = (*oum_src)->clock().now();
          // Push pays the OUM sequencer round trip (paper: "fetching a
          // global sequence number ... incurs an additional two message
          // delays").
          DFI_CHECK_OK((*oum_src)->Push(&cmd));
          ++sent;
          progressed = true;
        }
        Reply rep;
        SimTime arrival = 0;
        while (replies.Next(&rep, &arrival)) {
          got_reply[rep.req_id] = 1;
          last_arrival[rep.req_id] =
              std::max(last_arrival[rep.req_id], arrival);
          maybe_complete(rep.req_id);
          progressed = true;
        }
        Vote ack;
        while (acks.Next(&ack, &arrival)) {
          if (ack.req_id < cfg.requests_per_client) {
            ++ack_count[ack.req_id];
            last_arrival[ack.req_id] =
                std::max(last_arrival[ack.req_id], arrival);
            maybe_complete(ack.req_id);
          }
          progressed = true;
        }
        if (!progressed) exec::IdleWait(epoch);
      }
      out.completed = done;
      out.finish = sync3();
      DFI_CHECK_OK((*oum_src)->Close());
      replies.DrainToEnd();
      acks.DrainToEnd();
    });
  }

  actors.Join();
  DFI_RETURN_IF_ERROR(dfi->RemoveFlows({"np.oum", "np.reply", "np.ack"}));
  if (failed.load()) return Status::Internal("nopaxos worker failed");

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
