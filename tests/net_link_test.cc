#include "common/exec/engine.h"
#include "common/random.h"
#include "net/fault_plan.h"
#include "net/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <new>
#include <utility>
#include <vector>

// Counts global operator new calls while armed, so a test can check that a
// loop allocates nothing. Replacing the global operators affects every test
// in this binary, but only counts inside an armed window.
namespace {
bool g_count_allocs = false;
size_t g_allocs = 0;
}  // namespace

void* operator new(size_t size) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC flags free() in a replacement operator delete as a mismatch with
// operator new, not seeing that the replacement new above calls malloc().
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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

// ---- Differential test against the std::map gap set -----------------------

// LinkScheduler's reservation algorithm as it was before the flat gap store:
// a std::map of idle gaps, copied verbatim (minus its mutex) so the flat
// store can be checked against it reservation by reservation.
class MapLinkScheduler {
 public:
  explicit MapLinkScheduler(double bytes_per_ns)
      : ns_per_byte_(1.0 / bytes_per_ns) {}

  using RateProbe = std::function<double(SimTime)>;
  void set_rate_probe(RateProbe probe) { rate_probe_ = std::move(probe); }

  TransferWindow Reserve(SimTime ready, uint64_t bytes) {
    double ns_per_byte = ns_per_byte_;
    if (rate_probe_) {
      const double factor = std::clamp(rate_probe_(ready), 1e-6, 1.0);
      ns_per_byte /= factor;
    }
    const SimTime duration = static_cast<SimTime>(
        std::llround(static_cast<double>(bytes) * ns_per_byte));
    busy_time_ += duration;
    total_bytes_ += bytes;

    if (ready < busy_until_ && duration <= max_gap_len_) {
      auto it = gaps_.lower_bound(ready);
      if (it != gaps_.begin() && std::prev(it)->second > ready) --it;
      for (; it != gaps_.end(); ++it) {
        const SimTime gap_start = it->first;
        const SimTime gap_end = it->second;
        const SimTime start = std::max(ready, gap_start);
        if (start + duration > gap_end) continue;  // does not fit
        const SimTime end = start + duration;
        gaps_.erase(it);
        if (start > gap_start) gaps_.emplace(gap_start, start);
        if (end < gap_end) gaps_.emplace(end, gap_end);
        return {start, end};
      }
    }

    const SimTime start = std::max(ready, busy_until_);
    const SimTime end = start + duration;
    if (start > busy_until_) {
      gaps_.emplace(busy_until_, start);
      max_gap_len_ = std::max(max_gap_len_, start - busy_until_);
      if (gaps_.size() > kMaxGaps) gaps_.erase(gaps_.begin());
    }
    busy_until_ = end;
    return {start, end};
  }

  SimTime busy_until() const { return busy_until_; }
  uint64_t total_bytes() const { return total_bytes_; }
  SimTime busy_time() const { return busy_time_; }
  const std::map<SimTime, SimTime>& gaps() const { return gaps_; }

 private:
  const double ns_per_byte_;
  RateProbe rate_probe_;
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t total_bytes_ = 0;
  std::map<SimTime, SimTime> gaps_;
  SimTime max_gap_len_ = 0;
  static constexpr size_t kMaxGaps = 128;
};

// What a stream of reservations exercised in the reference model.
struct Coverage {
  int tail_gaps = 0;    // reservations that left an idle gap behind them
  int evictions = 0;    // tail gaps added beyond kMaxGaps
  int splits = 0;       // backfills that left gap on both sides
  int exact_fits = 0;   // backfills that consumed a whole gap
  int zero_bytes = 0;
};

// Drives a LinkScheduler and the reference model with the same stream and
// compares every result.
class LinkPair {
 public:
  explicit LinkPair(double bytes_per_ns)
      : flat_("flat", bytes_per_ns), ref_(bytes_per_ns) {}

  LinkScheduler& flat() { return flat_; }
  MapLinkScheduler& ref() { return ref_; }
  const Coverage& coverage() const { return coverage_; }

  ::testing::AssertionResult Reserve(SimTime ready, uint64_t bytes) {
    const size_t gaps_before = ref_.gaps().size();
    const SimTime busy_before = ref_.busy_until();
    const TransferWindow a = flat_.Reserve(ready, bytes);
    const TransferWindow b = ref_.Reserve(ready, bytes);
    const size_t gaps_after = ref_.gaps().size();
    if (b.start > busy_before) {
      ++coverage_.tail_gaps;
      if (gaps_before >= LinkScheduler::kMaxGaps) ++coverage_.evictions;
    } else if (b.end <= busy_before && b.end > b.start) {
      if (gaps_after == gaps_before + 1) ++coverage_.splits;
      if (gaps_after + 1 == gaps_before) ++coverage_.exact_fits;
    }
    if (bytes == 0) ++coverage_.zero_bytes;
    if (a.start != b.start || a.end != b.end) {
      return ::testing::AssertionFailure()
             << "Reserve(" << ready << ", " << bytes << "): flat [" << a.start
             << ", " << a.end << ") vs map [" << b.start << ", " << b.end
             << ")";
    }
    if (flat_.busy_until() != ref_.busy_until() ||
        flat_.busy_time() != ref_.busy_time() ||
        flat_.total_bytes() != ref_.total_bytes()) {
      return ::testing::AssertionFailure()
             << "Reserve(" << ready << ", " << bytes
             << "): busy_until/busy_time/total_bytes " << flat_.busy_until()
             << "/" << flat_.busy_time() << "/" << flat_.total_bytes()
             << " vs " << ref_.busy_until() << "/" << ref_.busy_time() << "/"
             << ref_.total_bytes();
    }
    return ::testing::AssertionSuccess();
  }

 private:
  LinkScheduler flat_;
  MapLinkScheduler ref_;
  Coverage coverage_;
};

// Bytes that take about `ns` on a link of `bytes_per_ns`.
uint64_t BytesFor(SimTime ns, double bytes_per_ns) {
  return static_cast<uint64_t>(
      std::llround(static_cast<double>(ns) * bytes_per_ns));
}

// One seeded stream: out-of-order readiness, bursts of tail gaps past
// kMaxGaps, fits aimed at a live gap (exact, middle split, left-aligned),
// zero-byte reservations and reservations ready long ago.
void DriveRandomStream(uint64_t seed, int ops, LinkPair* pair,
                       double bytes_per_ns) {
  Xorshift128Plus rng(seed);
  for (int i = 0; i < ops; ++i) {
    const SimTime busy = pair->ref().busy_until();
    const auto& gaps = pair->ref().gaps();
    auto pick_gap = [&] {
      auto it = gaps.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(gaps.size())));
      return *it;
    };
    const uint64_t kind = rng.NextBelow(9);
    if ((kind == 3 || kind == 4 || kind == 5) && gaps.empty()) continue;
    switch (kind) {
      case 0:
      case 1: {  // out of order around the tail
        const SimTime back = static_cast<SimTime>(rng.NextBelow(4000));
        const SimTime ready =
            rng.NextBool(0.7) ? std::max<SimTime>(0, busy - back)
                              : busy + static_cast<SimTime>(rng.NextBelow(200));
        ASSERT_TRUE(pair->Reserve(ready, rng.NextBelow(3000))) << "op " << i;
        break;
      }
      case 2: {  // burst of small tail gaps
        const int n = 1 + static_cast<int>(rng.NextBelow(200));
        for (int k = 0; k < n; ++k) {
          const SimTime ready = pair->ref().busy_until() + 1 +
                                static_cast<SimTime>(rng.NextBelow(60));
          ASSERT_TRUE(pair->Reserve(ready, 1 + rng.NextBelow(100)))
              << "op " << i << "." << k;
        }
        break;
      }
      case 3: {  // exactly a whole gap
        const auto [start, end] = pick_gap();
        ASSERT_TRUE(pair->Reserve(start, BytesFor(end - start, bytes_per_ns)))
            << "op " << i;
        break;
      }
      case 4: {  // the middle third of a gap
        const auto [start, end] = pick_gap();
        const SimTime third = (end - start) / 3;
        ASSERT_TRUE(
            pair->Reserve(start + third, BytesFor(third, bytes_per_ns)))
            << "op " << i;
        break;
      }
      case 5: {  // the left half of a gap
        const auto [start, end] = pick_gap();
        ASSERT_TRUE(
            pair->Reserve(start, BytesFor((end - start) / 2, bytes_per_ns)))
            << "op " << i;
        break;
      }
      case 6: {  // zero bytes anywhere
        const SimTime ready = static_cast<SimTime>(
            rng.NextBelow(static_cast<uint64_t>(busy) + 100));
        ASSERT_TRUE(pair->Reserve(ready, 0)) << "op " << i;
        break;
      }
      case 7: {  // ready long ago: the walk starts at the first gap
        ASSERT_TRUE(pair->Reserve(0, rng.NextBelow(50))) << "op " << i;
        break;
      }
      default: {  // one large gap, then back to the tail
        const SimTime ready = busy + static_cast<SimTime>(rng.NextBelow(20000));
        ASSERT_TRUE(pair->Reserve(ready, rng.NextBelow(500))) << "op " << i;
        break;
      }
    }
  }
}

TEST(LinkSchedulerDifferentialTest, RandomStreamsMatchMapModel) {
  Coverage total;
  for (const double bytes_per_ns : {1.0, 12.5, 0.3}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "bytes_per_ns " << bytes_per_ns << " seed " << seed);
      LinkPair pair(bytes_per_ns);
      DriveRandomStream(seed, 2000, &pair, bytes_per_ns);
      if (HasFatalFailure()) return;
      total.tail_gaps += pair.coverage().tail_gaps;
      total.evictions += pair.coverage().evictions;
      total.splits += pair.coverage().splits;
      total.exact_fits += pair.coverage().exact_fits;
      total.zero_bytes += pair.coverage().zero_bytes;
    }
  }
  // The streams reach every branch of the gap store.
  EXPECT_GT(total.tail_gaps, 1000);
  EXPECT_GT(total.evictions, 100);
  EXPECT_GT(total.splits, 100);
  EXPECT_GT(total.exact_fits, 100);
  EXPECT_GT(total.zero_bytes, 100);
}

TEST(LinkSchedulerDifferentialTest, DegradeRestoreWindowMatchesMapModel) {
  constexpr NodeId kNode = 3;
  constexpr double kBaseGbps = 100.0;
  FaultPlan plan;
  plan.DegradeLink(kNode, 20'000, 10.0);
  plan.RestoreLink(kNode, 60'000);
  plan.DegradeLink(kNode, 90'000, 0.5);
  plan.DegradeLink(kNode + 1, 0, 1.0);  // another node's link: no effect
  LinkPair pair(kBaseGbps / 8.0);
  pair.flat().set_fault_plan(&plan, kNode, kBaseGbps);
  pair.ref().set_rate_probe([&plan](SimTime at) {
    return plan.LinkRateFactor(kNode, at, kBaseGbps);
  });
  DriveRandomStream(7, 3000, &pair, kBaseGbps / 8.0);
  EXPECT_GT(pair.flat().busy_until(), 90'000);  // the stream spans the plan
}

TEST(LinkSchedulerDifferentialTest, InactivePlanMatchesProbeAtFullSpeed) {
  FaultPlan plan;  // no events: the flat store never queries it
  LinkPair pair(12.5);
  pair.flat().set_fault_plan(&plan, 0, 100.0);
  pair.ref().set_rate_probe(
      [&plan](SimTime at) { return plan.LinkRateFactor(0, at, 100.0); });
  DriveRandomStream(11, 2000, &pair, 12.5);
}

TEST(LinkSchedulerTest, FitInGapMiddleSplitsIt) {
  LinkScheduler link("l", 1.0);
  link.Reserve(0, 100);
  link.Reserve(1000, 100);  // gap [100, 1000)
  EXPECT_EQ(link.Reserve(400, 100).start, 400);  // gaps [100,400) [500,1000)
  EXPECT_EQ(link.Reserve(100, 300).start, 100);  // consumes [100, 400)
  EXPECT_EQ(link.Reserve(0, 500).start, 500);    // consumes [500, 1000)
  EXPECT_EQ(link.Reserve(0, 1).start, 1100);     // no gap left
  EXPECT_EQ(link.busy_time(), 1101);
}

TEST(LinkSchedulerTest, OldestGapEvictedBeyondMaxGaps) {
  LinkScheduler link("l", 1.0);
  // Gap i is [20 i, 20 i + 10); the first tail gap past kMaxGaps drops
  // gap 0.
  for (size_t i = 0; i <= LinkScheduler::kMaxGaps; ++i) {
    link.Reserve(static_cast<SimTime>(20 * i + 10), 10);
  }
  EXPECT_EQ(link.Reserve(0, 10).start, 20);  // gap 0 is gone
  EXPECT_EQ(link.Reserve(40, 10).start, 40);  // gap 2 is still there
}

TEST(LinkSchedulerTest, ReserveAllocatesNothingInSteadyState) {
  LinkScheduler link("l", 1.0);
  // Each round adds a tail gap (evicting the oldest once kMaxGaps are
  // live), shrinks it from the left, splits it and consumes one part.
  auto round = [&link] {
    const SimTime a = link.busy_until();
    link.Reserve(a + 20, 10);  // gap [a, a + 20)
    link.Reserve(a, 5);        // gap [a + 5, a + 20)
    link.Reserve(a + 10, 5);   // gaps [a + 5, a + 10) and [a + 15, a + 20)
    link.Reserve(a + 15, 5);   // gap [a + 5, a + 10)
  };
  for (int i = 0; i < 4 * static_cast<int>(LinkScheduler::kMaxGaps); ++i) {
    round();  // reach the working size
  }
  g_allocs = 0;
  g_count_allocs = true;
  for (int i = 0; i < 10'000; ++i) round();
  g_count_allocs = false;
  EXPECT_EQ(g_allocs, 0u);
  EXPECT_EQ(link.busy_time(), 25 * (4 * 128 + 10'000));
}

}  // namespace
}  // namespace dfi::net
