// FlowBarrier tests: release on full arrival, generational reuse,
// virtual-time join at the release instant, timeout, participant-count
// validation, and release across a shard-primary crash.

#include "registry/flow_barrier.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/exec/engine.h"
#include "net/fabric.h"
#include "registry/registry_client.h"
#include "registry/registry_service.h"

namespace dfi::reg {
namespace {

TEST(FlowBarrierTest, ThreadModeReleasesAllParticipants) {
  RegistryService service(/*fabric=*/nullptr);
  constexpr uint32_t kN = 3;
  std::vector<Status> results(kN, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (uint32_t p = 0; p < kN; ++p) {
    threads.emplace_back([&, p] {
      RegistryClient client(&service,
                            RegistryClientOptions{.client_id = p + 1});
      FlowBarrier barrier(&client, "start", kN);
      results[p] = barrier.Wait(std::chrono::milliseconds(5000));
    });
  }
  for (auto& t : threads) t.join();
  for (uint32_t p = 0; p < kN; ++p) {
    EXPECT_TRUE(results[p].ok()) << "participant " << p << ": "
                                 << results[p].ToString();
  }
}

TEST(FlowBarrierTest, EngineModeJoinsClocksAtLatestArrival) {
  RegistryService service(/*fabric=*/nullptr);
  constexpr uint32_t kN = 3;
  const SimTime arrivals[kN] = {10'000, 30'000, 20'000};
  std::vector<std::unique_ptr<VirtualClock>> clocks;
  std::vector<std::unique_ptr<RegistryClient>> clients;
  std::vector<std::unique_ptr<FlowBarrier>> barriers;
  for (uint32_t p = 0; p < kN; ++p) {
    clocks.push_back(std::make_unique<VirtualClock>());
    clients.push_back(std::make_unique<RegistryClient>(
        &service, RegistryClientOptions{.client_id = p + 1},
        clocks[p].get()));
    barriers.push_back(
        std::make_unique<FlowBarrier>(clients[p].get(), "phase", kN));
  }
  exec::Engine engine({.workers = 2});
  for (uint32_t p = 0; p < kN; ++p) {
    engine.Spawn(p, std::string("p").append(std::to_string(p)), [&, p] {
      clocks[p]->AdvanceTo(arrivals[p]);
      ASSERT_TRUE(barriers[p]->Wait().ok());
      // Every participant leaves at the latest arrival's virtual time.
      EXPECT_EQ(clocks[p]->now(), 30'000);
      EXPECT_EQ(barriers[p]->generation(), 1u);
      // Generational reuse: a second round works on the same instance.
      clocks[p]->Advance(1'000 * (p + 1));
      ASSERT_TRUE(barriers[p]->Wait().ok());
      EXPECT_EQ(clocks[p]->now(), 30'000 + 3'000);
      EXPECT_EQ(barriers[p]->generation(), 2u);
    });
  }
  engine.Run();
}

TEST(FlowBarrierTest, TimeoutWhenParticipantsMissing) {
  RegistryService service(/*fabric=*/nullptr);
  VirtualClock clock;
  RegistryClient client(&service, RegistryClientOptions{.client_id = 1},
                        &clock);
  FlowBarrier barrier(&client, "lonely", /*expected=*/2);
  Status result = Status::OK();
  exec::Engine engine({.workers = 1});
  engine.Spawn(0, "p0", [&] {
    result = barrier.Wait(std::chrono::milliseconds(5));
  });
  engine.Run();
  EXPECT_EQ(result.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(clock.now(), 5'000'000);  // charged the virtual deadline
  EXPECT_EQ(barrier.generation(), 0u);
}

TEST(FlowBarrierTest, ParticipantCountMismatchRejected) {
  RegistryService service(/*fabric=*/nullptr);
  RegistryClient c1(&service, RegistryClientOptions{.client_id = 1});
  RegistryClient c2(&service, RegistryClientOptions{.client_id = 2});
  FlowBarrier b1(&c1, "b", /*expected=*/2);
  FlowBarrier b2(&c2, "b", /*expected=*/3);
  Status s1 = Status::Internal("not run");
  std::thread t1([&] { s1 = b1.Wait(); });
  // The first arrival fixes the group size; wait until it has been applied
  // before the disagreeing participant shows up.
  while (service.applied_ops() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The second participant disagrees about the group size: rejected, and
  // the barrier still releases for the group that agreed.
  Status s2 = b2.Wait(std::chrono::milliseconds(100));
  EXPECT_EQ(s2.code(), StatusCode::kInvalidArgument);
  RegistryClient c3(&service, RegistryClientOptions{.client_id = 3});
  FlowBarrier b3(&c3, "b", /*expected=*/2);
  ASSERT_TRUE(b3.Wait().ok());
  t1.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
}

TEST(FlowBarrierTest, ReleasesAcrossPrimaryCrash) {
  net::Fabric fabric;
  const std::vector<net::NodeId> nodes = fabric.AddNodes(4);
  RegistryServiceOptions opts;
  opts.num_shards = 1;
  opts.replication = 2;
  opts.replica_nodes = {nodes[0], nodes[1]};
  RegistryService service(&fabric, opts);
  // The primary dies after the first participant's arrival was applied
  // and replicated, but before the second participant enters; the backup
  // takes over with the arrival intact and releases the barrier.
  fabric.fault_plan().CrashNode(nodes[0], /*at=*/1'000'000);

  VirtualClock clock_a, clock_b;
  RegistryClient ca(&service,
                    RegistryClientOptions{.client_id = 1, .node = nodes[2]},
                    &clock_a);
  RegistryClient cb(&service,
                    RegistryClientOptions{.client_id = 2, .node = nodes[3]},
                    &clock_b);
  FlowBarrier ba(&ca, "sync", 2);
  FlowBarrier bb(&cb, "sync", 2);

  exec::Engine engine({.workers = 2});
  Status sa = Status::Internal("not run"), sb = sa;
  engine.Spawn(0, "a", [&] { sa = ba.Wait(); });
  engine.Spawn(1, "b", [&] {
    clock_b.AdvanceTo(2'000'000);  // enters after the crash
    sb = bb.Wait();
  });
  engine.Run();
  EXPECT_TRUE(sa.ok()) << sa.ToString();
  EXPECT_TRUE(sb.ok()) << sb.ToString();
  // Both left at the latest arrival (participant b, after the crash).
  EXPECT_GE(clock_a.now(), 2'000'000);
}

}  // namespace
}  // namespace dfi::reg
