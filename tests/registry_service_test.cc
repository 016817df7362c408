// Control-plane tests (sharded, replicated registry PR): shard routing,
// primary/backup failover with epoch bumps, exactly-once retries through
// mid-batch crashes, client cache fencing, and pool-size-independent
// event traces.

#include "registry/registry_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/exec/engine.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "registry/registry_client.h"

namespace dfi::reg {
namespace {

struct DummyState : FlowStateBase {
  explicit DummyState(int v) : value(v) {}
  int value;
};

std::shared_ptr<FlowStateBase> State(int v) {
  return std::make_shared<DummyState>(v);
}

int ValueOf(const std::shared_ptr<FlowStateBase>& s) {
  return std::static_pointer_cast<DummyState>(s)->value;
}

// ---- Loopback deployment ---------------------------------------------------

TEST(RegistryServiceTest, LoopbackPublishRetrieveClose) {
  RegistryService service(/*fabric=*/nullptr);
  RegistryClient client(&service);
  ASSERT_TRUE(client.Publish("f", State(7)).ok());
  EXPECT_EQ(client.Publish("f", State(8)).code(),
            StatusCode::kAlreadyExists);
  auto r = client.Retrieve("f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ValueOf(*r), 7);
  EXPECT_EQ(service.TotalFlows(0), 1u);
  ASSERT_TRUE(client.Close("f").ok());
  EXPECT_EQ(service.TotalFlows(0), 0u);
  EXPECT_EQ(client.Retrieve("f").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.Close("f").code(), StatusCode::kNotFound);
  // Close frees the name for a fresh publish.
  ASSERT_TRUE(client.Publish("f", State(9)).ok());
  r = client.Retrieve("f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ValueOf(*r), 9);
}

TEST(RegistryServiceTest, ShardRoutingIsStableAndValidated) {
  RegistryServiceOptions opts;
  opts.num_shards = 8;
  RegistryService service(/*fabric=*/nullptr, opts);
  const ShardId s1 = service.ShardOf("flow.a");
  EXPECT_EQ(s1, service.ShardOf("flow.a"));
  EXPECT_LT(s1, 8u);

  // A batch whose op does not belong to the addressed shard is rejected
  // before execution.
  Op op;
  op.kind = OpKind::kRetrieve;
  op.name = "flow.a";
  BatchRequest req;
  req.shard = (s1 + 1) % 8;
  req.ops.push_back(op);
  BatchResult res = service.Execute(req, /*start=*/0);
  EXPECT_EQ(res.transport.code(), StatusCode::kInvalidArgument);
}

TEST(RegistryServiceTest, BatchedOpsSpanShards) {
  RegistryServiceOptions opts;
  opts.num_shards = 4;
  RegistryService service(/*fabric=*/nullptr, opts);
  RegistryClient client(&service);
  std::vector<std::pair<std::string, std::shared_ptr<FlowStateBase>>> flows;
  std::vector<std::string> names;
  for (int i = 0; i < 32; ++i) {
    names.push_back("flow." + std::to_string(i));
    flows.emplace_back(names.back(), State(i));
  }
  auto pub = client.PublishBatch(flows);
  ASSERT_TRUE(pub.ok());
  for (const OpResult& r : *pub) EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(service.TotalFlows(0), 32u);

  auto got = client.RetrieveBatch(names);
  ASSERT_TRUE(got.ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*got)[i].status.ok()) << names[i];
    EXPECT_EQ(ValueOf((*got)[i].state), i);
  }
  auto closed = client.CloseBatch(names);
  ASSERT_TRUE(closed.ok());
  for (const OpResult& r : *closed) EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(service.TotalFlows(0), 0u);
}

// ---- Replicated fabric deployment -----------------------------------------

class ReplicatedRegistryTest : public ::testing::Test {
 protected:
  /// One shard, three replicas on nodes 1..3; clients on node 0 and 4.
  void Build(uint32_t replication = 3) {
    nodes_ = fabric_.AddNodes(5);
    RegistryServiceOptions opts;
    opts.num_shards = 1;
    opts.replication = replication;
    for (uint32_t r = 0; r < replication; ++r) {
      opts.replica_nodes.push_back(nodes_[1 + r]);
    }
    opts.record_trace = true;
    service_ = std::make_unique<RegistryService>(&fabric_, opts);
  }

  SimTime Hop(net::NodeId from, net::NodeId to, SimTime at,
              uint32_t bytes) const {
    return net::RpcPath(&fabric_).HopNs(from, to, at, bytes);
  }

  net::Fabric fabric_;
  std::vector<net::NodeId> nodes_;
  std::unique_ptr<RegistryService> service_;
};

TEST_F(ReplicatedRegistryTest, FailoverBumpsEpochAndPromotesBackup) {
  Build();
  fabric_.fault_plan().CrashNode(nodes_[1], /*at=*/1'000'000);

  ShardView before = service_->ViewAt(0, 999'999);
  EXPECT_EQ(before.epoch, 1u);
  EXPECT_EQ(before.primary, 0u);
  EXPECT_EQ(before.primary_node, nodes_[1]);
  EXPECT_TRUE(before.available);

  ShardView after = service_->ViewAt(0, 1'000'000);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.primary, 1u);
  EXPECT_EQ(after.primary_node, nodes_[2]);
  EXPECT_TRUE(after.available);

  // A client without a cache finds the promoted primary through a fresh
  // view, never through a redirect, and still counts the one failover.
  VirtualClock clock;
  RegistryClient client(service_.get(),
                        RegistryClientOptions{.client_id = 1,
                                              .node = nodes_[0],
                                              .enable_cache = false},
                        &clock);
  ASSERT_TRUE(client.Publish("f", State(1)).ok());
  EXPECT_EQ(client.stats().failovers, 0u);
  clock.AdvanceTo(2'000'000);
  ASSERT_TRUE(client.Retrieve("f").ok());
  ASSERT_TRUE(client.Retrieve("f").ok());
  EXPECT_EQ(client.stats().failovers, 1u);
}

TEST_F(ReplicatedRegistryTest, ReplicatedStateSurvivesPrimaryCrash) {
  Build();
  fabric_.fault_plan().CrashNode(nodes_[1], /*at=*/1'000'000);
  VirtualClock clock;
  RegistryClient client(
      service_.get(),
      RegistryClientOptions{.client_id = 1, .node = nodes_[0]}, &clock);
  ASSERT_TRUE(client.Publish("f", State(42)).ok());
  ASSERT_LT(clock.now(), 1'000'000);  // published before the crash

  clock.AdvanceTo(2'000'000);  // past the crash
  auto r = client.Retrieve("f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ValueOf(*r), 42);
  EXPECT_EQ(service_->TotalFlows(2'000'000), 1u);
}

TEST_F(ReplicatedRegistryTest, WrongPrimaryRedirectCarriesView) {
  Build();
  Op op;
  op.kind = OpKind::kRetrieve;
  op.name = "f";
  BatchRequest req;
  req.client_id = 9;
  req.client_node = nodes_[0];
  req.shard = 0;
  req.target_replica = 2;  // a live backup, not the primary
  req.ops.push_back(op);
  BatchResult res = service_->Execute(req, /*start=*/0);
  ASSERT_TRUE(res.transport.ok());
  EXPECT_TRUE(res.wrong_primary);
  EXPECT_EQ(res.epoch, 1u);
  EXPECT_TRUE(res.results.empty());
  EXPECT_GT(res.complete_at, 0);  // redirect cost a round trip
}

TEST_F(ReplicatedRegistryTest, MidBatchCrashRetriesExactlyOnce) {
  Build();
  // Publish 6 flows in one batch; the primary dies after applying (and
  // replicating) exactly 2 of them. The client observes silence, backs
  // off, and resends to the promoted backup, which answers the first two
  // ops from its dedup window and applies the rest — nothing lost, nothing
  // double-applied (a double apply would surface as kAlreadyExists).
  const uint32_t kOps = 6;
  const SimTime hop =
      Hop(nodes_[0], nodes_[1], 0, kOpWireBytes * kOps);
  const SimTime t_arrive = hop;
  const SimTime per_op = kOpServeNs;
  fabric_.fault_plan().CrashNode(nodes_[1], t_arrive + per_op * 2 + 1);

  VirtualClock clock;
  RegistryClient client(
      service_.get(),
      RegistryClientOptions{.client_id = 1, .node = nodes_[0]}, &clock);
  std::vector<std::pair<std::string, std::shared_ptr<FlowStateBase>>> flows;
  for (uint32_t i = 0; i < kOps; ++i) {
    flows.emplace_back("f" + std::to_string(i), State(static_cast<int>(i)));
  }
  auto pub = client.PublishBatch(flows);
  ASSERT_TRUE(pub.ok());
  for (uint32_t i = 0; i < kOps; ++i) {
    EXPECT_TRUE((*pub)[i].status.ok())
        << "op " << i << ": " << (*pub)[i].status.ToString();
  }
  EXPECT_EQ((*pub)[0].duplicate, true);   // prefix answered from the window
  EXPECT_EQ((*pub)[1].duplicate, true);
  EXPECT_EQ((*pub)[2].duplicate, false);  // rest applied fresh
  EXPECT_EQ(service_->duplicates_suppressed(), 2u);
  EXPECT_EQ(service_->TotalFlows(clock.now()), kOps);
  const RegistryClientStats stats = client.stats();
  EXPECT_GE(stats.retries, 1u);

  // Every flow is retrievable from the promoted primary.
  for (uint32_t i = 0; i < kOps; ++i) {
    auto r = client.Retrieve("f" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(ValueOf(*r), static_cast<int>(i));
  }
}

TEST_F(ReplicatedRegistryTest, AllReplicasCrashedReportsPeerFailed) {
  Build(/*replication=*/2);
  fabric_.fault_plan().CrashNode(nodes_[1], 100);
  fabric_.fault_plan().CrashNode(nodes_[2], 200);
  VirtualClock clock;
  clock.AdvanceTo(1'000);
  RegistryClient client(
      service_.get(),
      RegistryClientOptions{.client_id = 1, .node = nodes_[0]}, &clock);
  EXPECT_EQ(client.Publish("f", State(1)).code(), StatusCode::kPeerFailed);
  EXPECT_FALSE(service_->ViewAt(0, 1'000).available);
}

TEST_F(ReplicatedRegistryTest, PartitionedClientExhaustsRetryDeadline) {
  Build();
  fabric_.fault_plan().Partition({nodes_[0]}, /*at=*/0);
  VirtualClock clock;
  RegistryClient client(
      service_.get(),
      RegistryClientOptions{.client_id = 1, .node = nodes_[0]}, &clock);
  const Status s = client.Publish("f", State(1));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  const RegistryClientStats stats = client.stats();
  EXPECT_GE(stats.retries, 2u);  // capped exponential backoff ran
  // The client gives up once the next backoff would cross the deadline,
  // after observing the last silence (one round trip past a resend).
  EXPECT_GT(clock.now(), kRetryDeadlineNs - kBackoffCapNs);
  EXPECT_LE(clock.now(), kRetryDeadlineNs + 100'000);
}

TEST_F(ReplicatedRegistryTest, ClientCacheFencedByEpochBump) {
  Build();
  fabric_.fault_plan().CrashNode(nodes_[1], /*at=*/5'000'000);
  VirtualClock clock;
  RegistryClient client(
      service_.get(),
      RegistryClientOptions{.client_id = 1, .node = nodes_[0]}, &clock);
  ASSERT_TRUE(client.Publish("f", State(5)).ok());
  ASSERT_TRUE(client.Retrieve("f").ok());  // miss: fetched and cached
  ASSERT_TRUE(client.Retrieve("f").ok());  // hit
  RegistryClientStats stats = client.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // Cross the crash: the cached entry carries epoch 1, the view now says
  // epoch 2, so the entry is fenced and re-fetched from the new primary.
  clock.AdvanceTo(6'000'000);
  auto r = client.Retrieve("f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ValueOf(*r), 5);
  stats = client.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_GE(stats.cache_invalidations, 1u);
}

TEST_F(ReplicatedRegistryTest, AbandonedBatchDoesNotWedgeTheWindow) {
  Build();
  // A client that gave up on a batch (deadline) moves on with fresh
  // sequence numbers; the shard accepts the forward jump and only ever
  // rejects re-use.
  Op op;
  op.kind = OpKind::kPublish;
  op.name = "f";
  op.state = State(1);
  BatchRequest req;
  req.client_id = 3;
  req.client_node = nodes_[0];
  req.shard = 0;
  req.target_replica = 0;
  req.base_seq = 40;  // seqs 0..39 were abandoned
  req.ops.push_back(op);
  BatchResult res = service_->Execute(req, /*start=*/0);
  ASSERT_TRUE(res.transport.ok());
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_TRUE(res.results[0].status.ok());

  // Re-sending the same seq is deduplicated, not re-applied.
  BatchResult retry = service_->Execute(req, /*start=*/res.complete_at);
  ASSERT_TRUE(retry.transport.ok());
  EXPECT_TRUE(retry.results[0].duplicate);
  EXPECT_EQ(service_->duplicates_suppressed(), 1u);
}

// ---- Determinism -----------------------------------------------------------

uint64_t RunChurn(uint32_t workers, std::string* trace) {
  net::Fabric fabric;
  const std::vector<net::NodeId> nodes = fabric.AddNodes(8);
  // Shard 0 on nodes {0,1}, shard 1 on nodes {2,3}; crash shard 0's
  // primary mid-run. Clients on nodes 4..7.
  fabric.fault_plan().CrashNode(nodes[0], /*at=*/40'000);
  RegistryServiceOptions opts;
  opts.num_shards = 2;
  opts.replication = 2;
  opts.replica_nodes = {nodes[0], nodes[1], nodes[2], nodes[3]};
  opts.record_trace = true;
  RegistryService service(&fabric, opts);

  constexpr uint32_t kClients = 4;
  constexpr uint32_t kFlowsPerClient = 16;
  std::vector<std::unique_ptr<VirtualClock>> clocks;
  std::vector<std::unique_ptr<RegistryClient>> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clocks.push_back(std::make_unique<VirtualClock>());
    clients.push_back(std::make_unique<RegistryClient>(
        &service,
        RegistryClientOptions{.client_id = c + 1, .node = nodes[4 + c]},
        clocks[c].get()));
  }
  exec::Engine engine({.workers = workers});
  for (uint32_t c = 0; c < kClients; ++c) {
    engine.Spawn(c, "client" + std::to_string(c), [&, c] {
      RegistryClient& cl = *clients[c];
      for (uint32_t i = 0; i < kFlowsPerClient; ++i) {
        // Appends in place: chained operator+ temporaries trip GCC 12's
        // -Werror=restrict in Release builds.
        std::string name = "w";
        name.append(std::to_string(c)).append(".f").append(std::to_string(i));
        ASSERT_TRUE(cl.Publish(name, State(static_cast<int>(i))).ok());
        ASSERT_TRUE(cl.Retrieve(name).ok());
        if (i % 2 == 0) {
          ASSERT_TRUE(cl.Close(name).ok());
        }
      }
    });
  }
  engine.Run();
  if (trace != nullptr) *trace = service.TraceString();
  return service.TraceHash();
}

TEST(RegistryDeterminismTest, ChurnTraceIdenticalAcrossWorkerPools) {
  std::string trace1, trace2, trace4;
  const uint64_t h1 = RunChurn(1, &trace1);
  const uint64_t h2 = RunChurn(2, &trace2);
  const uint64_t h4 = RunChurn(4, &trace4);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h4);
  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(trace1, trace4);
}

}  // namespace
}  // namespace dfi::reg
