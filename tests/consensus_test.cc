#include "apps/consensus/consensus.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "apps/consensus/kv_store.h"
#include "apps/consensus/messages.h"
#include "common/exec/engine.h"

namespace dfi::consensus {
namespace {

/// Runs `fn` as the root task of a 1-worker engine: the consensus apps'
/// idle waits park their actors as fibers, so they only run on an engine.
template <typename Fn>
auto OnEngine(Fn fn) -> decltype(fn()) {
  std::optional<decltype(fn())> out;
  exec::Engine engine({.workers = 1});
  engine.Spawn(0, "root", [&] { out.emplace(fn()); });
  engine.Run();
  return std::move(*out);
}

TEST(KvStoreTest, PutGet) {
  KvStore kv;
  Value v;
  v.fill(9);
  kv.Put(42, v);
  Value out;
  EXPECT_TRUE(kv.Get(42, &out));
  EXPECT_EQ(out, v);
  EXPECT_FALSE(kv.Get(43, &out));
  for (uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(MessagesTest, SchemasMatchStructLayouts) {
  EXPECT_EQ(Command::MakeSchema().tuple_size(), sizeof(Command));
  EXPECT_EQ(Reply::MakeSchema().tuple_size(), sizeof(Reply));
  EXPECT_EQ(Proposal::MakeSchema().tuple_size(), sizeof(Proposal));
  EXPECT_EQ(Vote::MakeSchema().tuple_size(), sizeof(Vote));
  EXPECT_EQ(sizeof(Command), 64u) << "paper: 64-byte requests";
}

class ConsensusTest : public ::testing::Test {
 protected:
  ConsensusConfig SmallConfig() {
    ConsensusConfig cfg;
    cfg.requests_per_client = 300;
    return cfg;
  }

  std::vector<std::string> SetUpNodes(net::Fabric* fabric,
                                      const ConsensusConfig& cfg) {
    std::vector<std::string> addrs;
    for (net::NodeId id :
         fabric->AddNodes(cfg.num_replicas + cfg.num_client_nodes)) {
      addrs.push_back(fabric->node(id).address());
    }
    return addrs;
  }
};

TEST_F(ConsensusTest, MultiPaxosCompletesAllRequests) {
  net::Fabric fabric;
  const ConsensusConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed,
            uint64_t{cfg.num_clients} * cfg.requests_per_client);
  EXPECT_GT(result->throughput_rps, 0);
  EXPECT_GT(result->median_latency_ns, 0);
  EXPECT_GE(result->p95_latency_ns, result->median_latency_ns);
}

TEST_F(ConsensusTest, MultiPaxosSurvivesLeaderCrashWithWindow) {
  // A leader crash scripted on the fault plan mid-run: every client fails
  // over with up to 8 requests in flight and resubmits the unacknowledged
  // ones, so every request still completes.
  net::Fabric fabric;
  ConsensusConfig cfg = SmallConfig();
  cfg.client_window = 8;
  auto addrs = SetUpNodes(&fabric, cfg);
  fabric.fault_plan().CrashNode(*fabric.ResolveAddress(addrs[0]), 100'000);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed,
            uint64_t{cfg.num_clients} * cfg.requests_per_client);
  EXPECT_GT(result->resubmitted, 0u);
  EXPECT_LE(result->resubmitted,
            uint64_t{cfg.num_clients} * cfg.client_window);
  EXPECT_GT(result->recovery_first_reply_ns, 0);
  EXPECT_GE(result->recovery_all_clients_ns,
            result->recovery_first_reply_ns);
}

TEST_F(ConsensusTest, FailureFreeMultiPaxosPublishesNoTerm2Flows) {
  // Occupy the term-2 flow names: a run that publishes its failover flow
  // set collides with them, a failure-free run must not.
  auto run = [&](bool crash) {
    net::Fabric fabric;
    const ConsensusConfig cfg = SmallConfig();
    auto addrs = SetUpNodes(&fabric, cfg);
    if (crash) {
      fabric.fault_plan().CrashNode(*fabric.ResolveAddress(addrs[0]),
                                    100'000);
    }
    DfiRuntime dfi(&fabric);
    for (const char* name :
         {"mp.t2.submit", "mp.t2.propose", "mp.t2.vote", "mp.t2.reply"}) {
      ShuffleFlowSpec spec;
      spec.name = name;
      spec.sources.Append(Endpoint{addrs[0], 0});
      spec.targets.Append(Endpoint{addrs[1], 0});
      spec.schema = Vote::MakeSchema();
      EXPECT_TRUE(dfi.InitShuffleFlow(std::move(spec)).ok());
    }
    auto result = OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); });
    if (result.ok()) {
      EXPECT_EQ(result->resubmitted, 0u);
      EXPECT_EQ(result->recovery_first_reply_ns, 0);
    }
    return result.status().code();
  };
  EXPECT_EQ(run(/*crash=*/false), StatusCode::kOk);
  EXPECT_EQ(run(/*crash=*/true), StatusCode::kAlreadyExists);
}

TEST_F(ConsensusTest, NoPaxosCompletesAllRequests) {
  net::Fabric fabric;
  const ConsensusConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunNoPaxos(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed,
            uint64_t{cfg.num_clients} * cfg.requests_per_client);
  EXPECT_GT(result->median_latency_ns, 0);
}

TEST_F(ConsensusTest, DareCompletesAllRequests) {
  net::Fabric fabric;
  const ConsensusConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunDare(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed,
            uint64_t{cfg.num_clients} * cfg.requests_per_client);
}

TEST_F(ConsensusTest, DfiSystemsOutperformDare) {
  // The headline of Figure 15: both DFI-based implementations consistently
  // beat DARE in throughput (sequential clients + serializing write
  // protocol cap DARE).
  const ConsensusConfig cfg = SmallConfig();
  double dare_rps, paxos_rps, nopaxos_rps;
  {
    net::Fabric f;
    auto addrs = SetUpNodes(&f, cfg);
    DfiRuntime dfi(&f);
    auto r = OnEngine([&] { return RunDare(&dfi, addrs, cfg); });
    ASSERT_TRUE(r.ok());
    dare_rps = r->throughput_rps;
  }
  {
    net::Fabric f;
    auto addrs = SetUpNodes(&f, cfg);
    DfiRuntime dfi(&f);
    auto r = OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); });
    ASSERT_TRUE(r.ok());
    paxos_rps = r->throughput_rps;
  }
  {
    net::Fabric f;
    auto addrs = SetUpNodes(&f, cfg);
    DfiRuntime dfi(&f);
    auto r = OnEngine([&] { return RunNoPaxos(&dfi, addrs, cfg); });
    ASSERT_TRUE(r.ok());
    nopaxos_rps = r->throughput_rps;
  }
  EXPECT_GT(paxos_rps, dare_rps);
  EXPECT_GT(nopaxos_rps, dare_rps);
}

TEST_F(ConsensusTest, ValidatesReplicaCount) {
  net::Fabric fabric;
  ConsensusConfig cfg = SmallConfig();
  cfg.num_replicas = 4;  // even: no clean majority
  fabric.AddNodes(cfg.num_replicas + cfg.num_client_nodes);
  std::vector<std::string> addrs;
  for (uint32_t i = 0; i < cfg.num_replicas + cfg.num_client_nodes; ++i) {
    addrs.push_back(fabric.node(i).address());
  }
  DfiRuntime dfi(&fabric);
  EXPECT_EQ(
      OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); }).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      OnEngine([&] { return RunNoPaxos(&dfi, addrs, cfg); }).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      OnEngine([&] { return RunDare(&dfi, addrs, cfg); }).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dfi::consensus
