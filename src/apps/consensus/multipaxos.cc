// Multi-Paxos on DFI flows, modeled on the paper's Figure 3: an N:1 shuffle
// flow for client submissions, a replicate flow (multicast) for proposals,
// an N:1 shuffle flow for votes and a 1:N shuffle flow for replies.
//
// The failure-free run is the empty FaultPlan. When the fabric's plan
// schedules a fail-stop crash of replica 0's node (the term-1 leader), the
// run becomes a failover: every survivor observes the failure through
// poisoned channels, kPeerFailed fault-plan probes or block deadlines —
// never by hanging — and moves to a pre-published term-2 flow set led by
// replica 1 (the emulation stand-in for a pre-negotiated view change;
// electing a leader is Paxos' own business, not the data-flow interface's).
// Clients resubmit every unacknowledged request on the term-2 flows.

#include <atomic>

#include "apps/consensus/internal.h"
#include "common/exec/engine.h"

namespace dfi::consensus {

using internal::ClientEndpoint;
using internal::MakeCommand;
using internal::SyncClocks;
using internal::TupleDrain;

namespace {

/// Bounded-blocking backstop installed on every flow of a failover run;
/// survivors must observe the crash well before it.
constexpr SimTime kFailoverBlockDeadlineNs = 50'000'000;  // 50 ms

constexpr const char* kTerm1 = "mp";
constexpr const char* kTerm2 = "mp.t2";

std::string FlowName(const char* term, const char* flow) {
  return std::string(term) + "." + flow;
}

/// Publishes one term's four flows (Figure 3). `leader` is the term's
/// leader replica; replicas first_follower..n-1 follow (term 2 excludes the
/// crashed replica 0 entirely).
Status InitTermFlows(DfiRuntime* dfi, const std::vector<std::string>& nodes,
                     const ConsensusConfig& cfg, const FlowOptions& lat,
                     const char* term, uint32_t leader,
                     uint32_t first_follower) {
  const Endpoint leader_ep{nodes[leader], 0};

  ShuffleFlowSpec submit;
  submit.name = FlowName(term, "submit");
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    submit.sources.Append(ClientEndpoint(nodes, cfg, c));
  }
  submit.targets.Append(leader_ep);
  submit.schema = Command::MakeSchema();
  submit.options = lat;
  DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(submit)));

  ReplicateFlowSpec propose;
  propose.name = FlowName(term, "propose");
  propose.sources.Append(leader_ep);
  for (uint32_t r = first_follower; r < cfg.num_replicas; ++r) {
    propose.targets.Append(Endpoint{nodes[r], 0});
  }
  propose.schema = Proposal::MakeSchema();
  propose.options = lat;
  propose.options.use_multicast = true;
  // Deep receive pools so every in-flight client request can have an
  // outstanding proposal without stalling the leader.
  propose.options.segments_per_ring = 256;
  DFI_RETURN_IF_ERROR(dfi->InitReplicateFlow(std::move(propose)));

  ShuffleFlowSpec vote;
  vote.name = FlowName(term, "vote");
  for (uint32_t r = first_follower; r < cfg.num_replicas; ++r) {
    vote.sources.Append(Endpoint{nodes[r], 0});
  }
  vote.targets.Append(leader_ep);
  vote.schema = Vote::MakeSchema();
  vote.options = lat;
  DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(vote)));

  ShuffleFlowSpec reply;
  reply.name = FlowName(term, "reply");
  reply.sources.Append(leader_ep);
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    reply.targets.Append(ClientEndpoint(nodes, cfg, c));
  }
  reply.schema = Reply::MakeSchema();
  reply.options = lat;
  // Route replies by the client id carried in the tuple.
  reply.routing = [](TupleView t, uint32_t m) {
    return t.Get<uint16_t>(0) % m;
  };
  return dfi->InitShuffleFlow(std::move(reply));
}

/// A leader's four endpoints on one term's flow set.
struct LeaderEndpoints {
  std::unique_ptr<ShuffleTarget> submit;
  std::unique_ptr<ShuffleTarget> vote;
  std::unique_ptr<ReplicateSource> propose;
  std::unique_ptr<ShuffleSource> reply;

  static StatusOr<LeaderEndpoints> Create(DfiRuntime* dfi, const char* term) {
    LeaderEndpoints ep;
    DFI_ASSIGN_OR_RETURN(ep.submit,
                         dfi->CreateShuffleTarget(FlowName(term, "submit"), 0));
    DFI_ASSIGN_OR_RETURN(ep.vote,
                         dfi->CreateShuffleTarget(FlowName(term, "vote"), 0));
    DFI_ASSIGN_OR_RETURN(
        ep.propose, dfi->CreateReplicateSource(FlowName(term, "propose"), 0));
    DFI_ASSIGN_OR_RETURN(ep.reply,
                         dfi->CreateShuffleSource(FlowName(term, "reply"), 0));
    return ep;
  }

  void AdvanceTo(SimTime t) {
    submit->clock().AdvanceTo(t);
    vote->clock().AdvanceTo(t);
    propose->clock().AdvanceTo(t);
    reply->clock().AdvanceTo(t);
  }

  /// Fail-stop: tears down every endpoint so no survivor blocks forever on
  /// this leader. No clean Close — a crash does not say goodbye; the
  /// poisoned-footer flag and the fault plan carry the news.
  void Abort(const Status& cause) {
    submit->Abort(cause);
    vote->Abort(cause);
    propose->Abort(cause);
    reply->Abort(cause);
  }
};

/// One leader term: merge submits and votes in virtual-arrival order,
/// order and propose each command, answer the client on a majority. Returns
/// false if the term ended by failure: the leader's own virtual clock
/// passing `crash_at` (its scripted fail-stop), or any flow operation
/// failing. A clean term ends once every client closed its submit source
/// and every ordered command was answered.
bool RunLeaderTerm(LeaderEndpoints& ep, const ConsensusConfig& cfg,
                   uint32_t majority, uint32_t voters, SimTime crash_at,
                   KvStore* kv) {
  auto sync_all = [&] {
    SimTime t = ep.submit->clock().now();
    t = std::max(t, ep.vote->clock().now());
    t = std::max(t, ep.propose->clock().now());
    t = std::max(t, ep.reply->clock().now());
    ep.AdvanceTo(t);
    return t;
  };

  struct Pending {
    Command cmd;
    uint32_t votes = 1;  // the leader's own vote
    bool done = false;
  };
  std::unordered_map<uint64_t, Pending> pending;
  TupleDrain<Command> submits(ep.submit.get());
  TupleDrain<Vote> votes(ep.vote.get());
  uint64_t next_index = 0;
  uint64_t replied = 0;

  for (;;) {
    if (crash_at != net::FaultPlan::kNever && sync_all() >= crash_at) {
      return false;  // fail-stop
    }
    if (submits.errored() || votes.errored()) return false;
    // Epoch before the poll round: a delivery racing the scan bumps the
    // epoch, so the IdleWait below returns immediately instead of parking.
    const uint64_t epoch = exec::ProgressEpoch();
    bool progressed = false;
    // Merge the two incoming flows in *virtual* arrival order: processing
    // a late-virtual submit before an early-virtual vote would drag the
    // leader clock (and thus reply times) forward.
    SimTime submit_arrival = 0, vote_arrival = 0;
    const bool have_submit = submits.PeekArrival(&submit_arrival);
    const bool have_vote = votes.PeekArrival(&vote_arrival);
    const bool take_submit =
        have_submit && (!have_vote || submit_arrival <= vote_arrival);
    Command cmd;
    if (take_submit && submits.Next(&cmd)) {
      // Order the request, append it to the local log and forward it to
      // the followers over the replicate flow.
      sync_all();
      ep.submit->clock().Advance(cfg.replica_logic_cost_ns +
                                 cfg.log_append_cost_ns);
      const uint64_t index = next_index++;
      pending.emplace(index, Pending{cmd, 1, false});
      Proposal proposal{index, cmd};
      if (!ep.propose->Push(&proposal).ok()) return false;
      progressed = true;
    }
    Vote vote;
    while (votes.Next(&vote)) {
      sync_all();
      ep.vote->clock().Advance(30);  // tallying one vote is a counter
      auto it = pending.find(vote.log_index);
      if (it != pending.end()) {
        Pending& p = it->second;
        ++p.votes;
        if (!p.done && p.votes >= majority) {
          // Committed: execute on the state machine, answer the client.
          p.done = true;
          ep.vote->clock().Advance(cfg.kv_op_cost_ns);
          Reply rep{};
          rep.client_id = p.cmd.client_id;
          rep.ok = 1;
          rep.req_id = p.cmd.req_id;
          rep.log_index = vote.log_index;
          if (p.cmd.is_write) {
            Value v;
            std::memcpy(v.data(), p.cmd.value, kValueBytes);
            kv->Put(p.cmd.key, v);
            std::memcpy(rep.value, p.cmd.value, kValueBytes);
          } else {
            Value v;
            kv->Get(p.cmd.key, &v);
            std::memcpy(rep.value, v.data(), kValueBytes);
          }
          sync_all();
          if (!ep.reply->Push(&rep).ok()) return false;
          ++replied;
        }
        if (p.votes == voters + 1) pending.erase(it);
      }
      progressed = true;
    }
    if (!progressed) {
      // An errored submit flow also reads as ended (a client that already
      // failed over aborted its term-1 source); the check at the top of the
      // next round fails the term instead.
      if (submits.ended() && !submits.errored() && replied == next_index) {
        break;
      }
      exec::IdleWait(epoch);
    }
  }
  if (!ep.propose->Close().ok()) return false;
  if (!ep.reply->Close().ok()) return false;
  votes.DrainToEnd();
  return !votes.errored();
}

/// One follower term: log and vote for every proposal until the leader
/// closes the term. Returns false if the term ended by failure; the vote
/// source is aborted then.
bool RunFollowerTerm(ReplicateTarget* proposals, ShuffleSource* votes,
                     const ConsensusConfig& cfg, uint32_t replica,
                     std::vector<Command>* log) {
  TupleView tuple;
  for (;;) {
    const ConsumeResult res = proposals->Consume(&tuple);
    if (res == ConsumeResult::kFlowEnd) break;
    if (res == ConsumeResult::kOk) {
      Proposal proposal;
      std::memcpy(&proposal, tuple.data(), sizeof(proposal));
      SyncClocks(proposals->clock(), votes->clock());
      proposals->clock().Advance(cfg.replica_logic_cost_ns +
                                 cfg.log_append_cost_ns);
      votes->clock().AdvanceTo(proposals->clock().now());
      log->push_back(proposal.cmd);
      Vote vote{proposal.log_index, static_cast<uint16_t>(replica),
                proposal.cmd.client_id, proposal.cmd.req_id};
      if (votes->Push(&vote).ok()) continue;
    }
    // The leader died (kError from poison / fault plan, or a vote ring at
    // the dead leader).
    votes->Abort(Status::Aborted("follower left the term"));
    return false;
  }
  return votes->Close().ok();
}

/// Per-client outcome of a run.
struct ClientOutcome {
  LatencyRecorder latencies;
  SimTime finish = 0;
  uint64_t completed = 0;
  uint64_t resubmitted = 0;
  /// Virtual arrival of this client's first term-2 reply; -1 if the client
  /// finished entirely in term 1.
  SimTime first_t2_arrival = -1;
};

/// Blocks until `replies` ends; returns how (kFlowEnd or kError). Draining
/// the end markers keeps the leader's reply-source Close from blocking.
ConsumeResult DrainToEnd(ShuffleTarget* replies) {
  SegmentView seg;
  for (;;) {
    const ConsumeResult r = replies->ConsumeSegment(&seg);
    if (r != ConsumeResult::kOk) return r;
  }
}

/// The closed-loop client: submits requests with a window and think time
/// and records per-request virtual latencies from the matching replies.
/// With a leader crash scheduled (`submit2`/`reply2` set), a failure of the
/// term-1 flows moves it to term 2, where it resubmits every unacknowledged
/// request. Replies of one client arrive in log order, so the
/// unacknowledged requests are exactly [done, sent). Returns false if the
/// client failed.
bool RunClient(ShuffleSource* submit1, ShuffleTarget* reply1,
               ShuffleSource* submit2, ShuffleTarget* reply2,
               const ConsensusConfig& cfg, uint32_t client, SimTime crash_at,
               ClientOutcome* out) {
  const uint32_t n = cfg.requests_per_client;
  const uint32_t window = cfg.client_window;
  const auto requests = bench::GenerateYcsbRequests(
      n, cfg.key_space, cfg.write_fraction, /*zipf_theta=*/0.0,
      cfg.seed + client);
  std::vector<SimTime> send_time(n);
  uint32_t sent = 0, done = 0;
  out->latencies.Reserve(n);
  bool term2 = false;
  ShuffleSource* src = submit1;
  ShuffleTarget* tgt = reply1;

  // Pushes request `i` at the client's current time.
  auto push = [&](uint32_t i) {
    const Command cmd =
        MakeCommand(static_cast<uint16_t>(client), i, requests[i]);
    send_time[i] = src->clock().now();
    return src->Push(&cmd).ok();
  };
  // Leaves term 1 and resubmits [done, sent) on the term-2 flows. A crash
  // can only be observed after it happened: term 2 starts no earlier than
  // the crash time.
  auto fail_over = [&] {
    if (term2 || submit2 == nullptr) return false;
    const Status cause = Status::Aborted("client failed over to term 2");
    submit1->Abort(cause);
    reply1->Abort(cause);
    const SimTime t =
        std::max({src->clock().now(), tgt->clock().now(), crash_at});
    term2 = true;
    src = submit2;
    tgt = reply2;
    src->clock().AdvanceTo(t);
    tgt->clock().AdvanceTo(t);
    for (uint32_t i = done; i < sent; ++i) {
      SyncClocks(src->clock(), tgt->clock());
      ++out->resubmitted;
      if (!push(i)) return false;
    }
    return true;
  };

  while (done < n) {
    while (sent < n && sent - done < window) {
      SyncClocks(src->clock(), tgt->clock());
      // Think time paces steady-state submissions (one per completed
      // request); the initial window fill is a burst, otherwise the fill
      // delay would pollute the latency of the first requests.
      if (sent >= window) src->clock().Advance(cfg.think_time_ns);
      tgt->clock().AdvanceTo(src->clock().now());
      // Counted as sent even if the push fails: the failover resubmits it.
      if (!push(sent++) && !fail_over()) return false;
    }
    SegmentView seg;
    const ConsumeResult r = tgt->ConsumeSegment(&seg);
    if (r == ConsumeResult::kOk) {
      Reply rep;
      std::memcpy(&rep, seg.payload, sizeof(rep));
      if (rep.req_id < done) continue;  // stale duplicate
      SyncClocks(src->clock(), tgt->clock());
      // Latency against the reply's *arrival*: with a pipelined window the
      // client clock runs ahead of old arrivals (think-time pacing).
      out->latencies.Record(
          std::max<SimTime>(seg.arrival - send_time[rep.req_id], 0));
      if (term2 && out->first_t2_arrival < 0) {
        out->first_t2_arrival = seg.arrival;
      }
      ++done;
    } else if (r != ConsumeResult::kError || !fail_over()) {
      return false;  // term-2 error or premature flow end
    }
  }
  out->completed = done;
  out->finish = tgt->clock().now();

  if (!term2) {
    // Never saw the crash (it happened after our last reply, if at all);
    // with a crash scheduled the term-1 teardown may still fail mid-drain.
    const bool closed = src->Close().ok();
    const ConsumeResult end = DrainToEnd(tgt);
    if (submit2 == nullptr) return closed && end == ConsumeResult::kFlowEnd;
    const SimTime t = std::max(src->clock().now(), tgt->clock().now());
    submit2->clock().AdvanceTo(t);
    reply2->clock().AdvanceTo(t);
  }
  // Every client closes its term-2 submit — the term-2 leader ends its term
  // on that — and drains term-2 replies so its Close never blocks.
  return submit2->Close().ok() &&
         DrainToEnd(reply2) == ConsumeResult::kFlowEnd;
}

}  // namespace

StatusOr<ConsensusResult> RunMultiPaxos(DfiRuntime* dfi,
                                        const std::vector<std::string>& nodes,
                                        const ConsensusConfig& cfg) {
  if (nodes.size() != cfg.num_replicas + cfg.num_client_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  if (cfg.num_replicas < 3 || cfg.num_replicas % 2 == 0) {
    return Status::InvalidArgument("need an odd number >= 3 of replicas");
  }
  DFI_ASSIGN_OR_RETURN(const net::NodeId leader_node,
                       dfi->fabric().ResolveAddress(nodes[0]));
  const SimTime crash_at = dfi->fabric().fault_plan().CrashTime(leader_node);
  const bool failover = crash_at != net::FaultPlan::kNever;

  FlowOptions lat;
  lat.optimization = FlowOptimization::kLatency;
  if (failover) lat.block_deadline_ns = kFailoverBlockDeadlineNs;
  DFI_RETURN_IF_ERROR(InitTermFlows(dfi, nodes, cfg, lat, kTerm1,
                                    /*leader=*/0, /*first_follower=*/1));
  if (failover) {
    DFI_RETURN_IF_ERROR(InitTermFlows(dfi, nodes, cfg, lat, kTerm2,
                                      /*leader=*/1, /*first_follower=*/2));
  }

  const uint32_t majority1 = cfg.num_replicas / 2 + 1;
  // Term 2 runs among the survivors only: replica 1 leads, replicas
  // 2..n-1 vote, so a majority of the surviving n-1 replicas commits.
  const uint32_t majority2 = (cfg.num_replicas - 1) / 2 + 1;
  std::atomic<bool> failed{false};
  std::vector<ClientOutcome> outcomes(cfg.num_clients);
  exec::ActorGroup actors;

  // ---- Term-1 leader (replica 0, the crash victim if one is scheduled) ----
  actors.Spawn("mp.leader", [&] {
    auto ep = LeaderEndpoints::Create(dfi, kTerm1);
    if (!ep.ok()) {
      failed.store(true);
      return;
    }
    KvStore kv;
    if (!RunLeaderTerm(*ep, cfg, majority1, /*voters=*/cfg.num_replicas - 1,
                       crash_at, &kv)) {
      if (!failover) failed.store(true);
      ep->Abort(Status::PeerFailed("term-1 leader fail-stopped"));
    }
  });

  // ---- Followers (replicas 1..n-1): term 1, then their term-2 role --------
  for (uint32_t r = 1; r < cfg.num_replicas; ++r) {
    actors.Spawn("mp.follower." + std::to_string(r), [&, r] {
      auto propose_tgt =
          dfi->CreateReplicateTarget(FlowName(kTerm1, "propose"), r - 1);
      auto vote_src = dfi->CreateShuffleSource(FlowName(kTerm1, "vote"), r - 1);
      if (!propose_tgt.ok() || !vote_src.ok()) {
        failed.store(true);
        return;
      }
      std::vector<Command> log;
      const bool t1_down = !RunFollowerTerm(propose_tgt->get(),
                                            vote_src->get(), cfg, r, &log);
      if (!failover) {
        if (t1_down) failed.store(true);
        return;
      }
      // A crash can only be *observed* after it happened: term 2 starts at
      // the later of this replica's local time and the crash time.
      SimTime t2_start =
          std::max((*propose_tgt)->clock().now(), (*vote_src)->clock().now());
      if (t1_down) t2_start = std::max(t2_start, crash_at);

      if (r == 1) {
        // ---- Term-2 leader ------------------------------------------------
        auto ep = LeaderEndpoints::Create(dfi, kTerm2);
        if (!ep.ok()) {
          failed.store(true);
          return;
        }
        // Recovery work: replay the replicated log into the new leader's
        // state machine before serving — part of the measured recovery time.
        KvStore kv;
        for (const Command& cmd : log) {
          if (!cmd.is_write) continue;
          Value v;
          std::memcpy(v.data(), cmd.value, kValueBytes);
          kv.Put(cmd.key, v);
        }
        t2_start += static_cast<SimTime>(log.size()) * cfg.kv_op_cost_ns;
        ep->AdvanceTo(t2_start);
        if (!RunLeaderTerm(*ep, cfg, majority2,
                           /*voters=*/cfg.num_replicas - 2,
                           net::FaultPlan::kNever, &kv)) {
          failed.store(true);  // term 2 must stay clean
          ep->Abort(Status::Aborted("term-2 leader failed"));
        }
        return;
      }
      // ---- Term-2 follower ------------------------------------------------
      auto propose2 =
          dfi->CreateReplicateTarget(FlowName(kTerm2, "propose"), r - 2);
      auto vote2 = dfi->CreateShuffleSource(FlowName(kTerm2, "vote"), r - 2);
      if (!propose2.ok() || !vote2.ok()) {
        failed.store(true);
        return;
      }
      (*propose2)->clock().AdvanceTo(t2_start);
      (*vote2)->clock().AdvanceTo(t2_start);
      if (!RunFollowerTerm(propose2->get(), vote2->get(), cfg, r, &log)) {
        failed.store(true);
      }
    });
  }

  // ---- Clients ------------------------------------------------------------
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    actors.Spawn("mp.client." + std::to_string(c), [&, c] {
      auto submit1 = dfi->CreateShuffleSource(FlowName(kTerm1, "submit"), c);
      auto reply1 = dfi->CreateShuffleTarget(FlowName(kTerm1, "reply"), c);
      StatusOr<std::unique_ptr<ShuffleSource>> submit2{nullptr};
      StatusOr<std::unique_ptr<ShuffleTarget>> reply2{nullptr};
      if (failover) {
        submit2 = dfi->CreateShuffleSource(FlowName(kTerm2, "submit"), c);
        reply2 = dfi->CreateShuffleTarget(FlowName(kTerm2, "reply"), c);
      }
      if (!submit1.ok() || !reply1.ok() || !submit2.ok() || !reply2.ok()) {
        failed.store(true);
        return;
      }
      if (!RunClient(submit1->get(), reply1->get(), submit2->get(),
                     reply2->get(), cfg, c, crash_at, &outcomes[c])) {
        failed.store(true);
        // Tear down so the leaders observe the failure instead of waiting
        // for this client's submit flow to end.
        const Status cause = Status::Aborted("client failed");
        (*submit1)->Abort(cause);
        (*reply1)->Abort(cause);
        if (failover) {
          (*submit2)->Abort(cause);
          (*reply2)->Abort(cause);
        }
      }
    });
  }

  actors.Join();
  std::vector<std::string> flows;
  for (const char* flow : {"submit", "propose", "vote", "reply"}) {
    flows.push_back(FlowName(kTerm1, flow));
    if (failover) flows.push_back(FlowName(kTerm2, flow));
  }
  DFI_RETURN_IF_ERROR(dfi->RemoveFlows(flows));
  if (failed.load()) return Status::Internal("multi-paxos worker failed");

  ConsensusResult result;
  LatencyRecorder all;
  SimTime finish = 0;
  SimTime first_t2 = net::FaultPlan::kNever, last_t2 = -1;
  for (ClientOutcome& o : outcomes) {
    result.completed += o.completed;
    result.resubmitted += o.resubmitted;
    all.Merge(o.latencies);
    finish = std::max(finish, o.finish);
    if (o.first_t2_arrival >= 0) {
      first_t2 = std::min(first_t2, o.first_t2_arrival);
      last_t2 = std::max(last_t2, o.first_t2_arrival);
    }
  }
  result.throughput_rps =
      static_cast<double>(result.completed) * 1e9 / std::max<SimTime>(finish, 1);
  result.median_latency_ns = all.Median();
  result.p95_latency_ns = all.Quantile(0.95);
  if (last_t2 >= 0) {
    // Term 2 starts no earlier than the crash, so both are >= 0.
    result.recovery_first_reply_ns = first_t2 - crash_at;
    result.recovery_all_clients_ns = last_t2 - crash_at;
  }
  return result;
}

}  // namespace dfi::consensus
