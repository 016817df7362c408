#include "common/exec/engine.h"
#include "net/link.h"

#include <gtest/gtest.h>

#include <vector>

namespace dfi::net {
namespace {

TEST(LinkSchedulerTest, SingleTransferTiming) {
  LinkScheduler link("l", 10.0);  // 10 B/ns
  TransferWindow w = link.Reserve(100, 1000);
  EXPECT_EQ(w.start, 100);
  EXPECT_EQ(w.end, 200);  // 1000 B / 10 B/ns
}

TEST(LinkSchedulerTest, BackToBackSerializes) {
  LinkScheduler link("l", 1.0);
  TransferWindow a = link.Reserve(0, 100);
  TransferWindow b = link.Reserve(0, 100);
  EXPECT_EQ(a.end, 100);
  EXPECT_EQ(b.start, 100);
  EXPECT_EQ(b.end, 200);
}

TEST(LinkSchedulerTest, IdleGapPreserved) {
  LinkScheduler link("l", 1.0);
  link.Reserve(0, 100);
  TransferWindow b = link.Reserve(500, 100);
  EXPECT_EQ(b.start, 500);
  EXPECT_EQ(b.end, 600);
  EXPECT_EQ(link.busy_time(), 200);  // only occupied time counts
  EXPECT_EQ(link.busy_until(), 600);
}

TEST(LinkSchedulerTest, ConservationOfBytes) {
  LinkScheduler link("l", 2.0);
  uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    link.Reserve(0, 64 + i);
    total += 64 + i;
  }
  EXPECT_EQ(link.total_bytes(), total);
}

TEST(LinkSchedulerTest, SaturatedLinkRateMatchesCapacity) {
  // A saturated link's throughput must equal its configured rate.
  LinkScheduler link("l", 12.5);  // 100 Gbps
  const uint64_t kSeg = 8192;
  const int kCount = 1000;
  SimTime end = 0;
  for (int i = 0; i < kCount; ++i) {
    end = link.Reserve(0, kSeg).end;
  }
  const double rate = static_cast<double>(kSeg) * kCount / end;  // B/ns
  EXPECT_NEAR(rate, 12.5, 0.1);
}

TEST(LinkSchedulerTest, ConcurrentReservationsDoNotOverlap) {
  LinkScheduler link("l", 1.0);
  exec::RunOnEngine([&] {
    exec::ActorGroup actors;
    std::vector<TransferWindow> windows(64);
    for (int t = 0; t < 8; ++t) {
      actors.Spawn("actor", [&, t] {
        for (int i = 0; i < 8; ++i) {
          windows[t * 8 + i] = link.Reserve(0, 10);
        }
      });
    }
    actors.Join();
    // All 64 windows are 10 ns long and disjoint -> busy time 640.
    EXPECT_EQ(link.busy_time(), 640);
    EXPECT_EQ(link.busy_until(), 640);
    for (const auto& w : windows) {
      EXPECT_EQ(w.end - w.start, 10);
    }
  });
}

TEST(LinkSchedulerTest, ZeroByteReserveIsInstant) {
  LinkScheduler link("l", 1.0);
  TransferWindow w = link.Reserve(50, 0);
  EXPECT_EQ(w.start, w.end);
}

}  // namespace
}  // namespace dfi::net
