// Unit tests for the deterministic work-stealing virtual-time engine
// (src/common/exec): task scheduling order, WaitPoint park/wake, timed
// parks (DES jumps), ActorGroup spawn/join in both modes, the
// progress-epoch idle protocol, and the fiber switch itself (per-fiber
// floating-point control state, unwinding, stack recycling, deep stacks).

#include "common/exec/engine.h"

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"

namespace dfi::exec {
namespace {

TEST(EngineTest, RunsAllTasks) {
  Engine engine({.workers = 1});
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    engine.Spawn(i, "t", [&] { ran.fetch_add(1); });
  }
  engine.Run();
  EXPECT_EQ(ran.load(), 10);
}

TEST(EngineTest, CurrentIsNullOutsideAndSetInside) {
  EXPECT_EQ(Engine::Current(), nullptr);
  EXPECT_FALSE(Engine::InTask());
  Engine engine({.workers = 1});
  bool inside = false;
  engine.Spawn(0, "probe", [&] { inside = Engine::InTask(); });
  engine.Run();
  EXPECT_TRUE(inside);
  EXPECT_EQ(Engine::Current(), nullptr);
}

TEST(EngineTest, SingleWorkerRunsInVirtualTimeOrder) {
  // With one worker and disjoint virtual times, tasks must execute in
  // (virtual time, spawn id) order regardless of spawn order.
  Engine engine({.workers = 1, .lookahead_ns = 0});
  std::vector<int> order;
  // Spawned in reverse virtual-time order; Yield re-enqueues at the given
  // virtual time, so the scheduler must sort them.
  for (int i = 4; i >= 0; --i) {
    engine.Spawn(static_cast<uint32_t>(i),
                 std::string("t").append(std::to_string(i)), [&, i] {
      Engine::Yield(static_cast<SimTime>(i) * 1000);
      order.push_back(i);
    });
  }
  engine.Run();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, ParkAndWakeAll) {
  Engine engine({.workers = 1});
  WaitPoint wp;
  std::mutex mu;
  bool flag = false;
  std::vector<int> order;
  engine.Spawn(0, "waiter", [&] {
    auto done = [&] {
      std::lock_guard<std::mutex> lock(mu);
      return flag;
    };
    while (!done()) Engine::Park(&wp, done, 0, Engine::kNoTimer);
    order.push_back(1);
  });
  engine.Spawn(1, "setter", [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      flag = true;
    }
    wp.WakeAll();
    order.push_back(0);
  });
  engine.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);  // setter finished first; waiter was parked
  EXPECT_EQ(order[1], 1);
}

TEST(EngineTest, ParkDeclinesWhenPredicateAlreadyTrue) {
  Engine engine({.workers = 1});
  WaitPoint wp;
  WakeCause cause = WakeCause::kTimer;
  engine.Spawn(0, "t", [&] {
    cause = Engine::Park(&wp, [] { return true; }, 0, Engine::kNoTimer);
  });
  engine.Run();
  EXPECT_EQ(cause, WakeCause::kNotified);
}

TEST(EngineTest, TimedParkJumpsVirtualTime) {
  // A lone task parked with a timer must be released by the virtual-time
  // floor reaching its wake time (a DES jump) — no real-time sleeping, no
  // notifier. If the engine waited in real time this test would hang.
  Engine engine({.workers = 1});
  WaitPoint wp;
  WakeCause cause = WakeCause::kNotified;
  engine.Spawn(0, "sleeper", [&] {
    cause = Engine::Park(&wp, [] { return false; }, /*now=*/0,
                         /*wake_at=*/1'000'000'000);
  });
  engine.Run();
  EXPECT_EQ(cause, WakeCause::kTimer);
}

TEST(EngineTest, SpawnFromInsideTask) {
  Engine engine({.workers = 1});
  std::atomic<int> ran{0};
  engine.Spawn(0, "parent", [&] {
    ran.fetch_add(1);
    Engine::Current()->Spawn(1, "child", [&] { ran.fetch_add(1); });
  });
  engine.Run();
  EXPECT_EQ(ran.load(), 2);
}

TEST(EngineTest, MultiWorkerCompletesAllTasks) {
  Engine engine({.workers = 4});
  std::atomic<int> ran{0};
  WaitPoint wp;
  std::atomic<bool> flag{false};
  for (int i = 0; i < 32; ++i) {
    engine.Spawn(static_cast<uint32_t>(i % 8), "t", [&] {
      auto done = [&] { return flag.load(); };
      while (!done()) Engine::Park(&wp, done, 0, Engine::kNoTimer);
      ran.fetch_add(1);
    });
  }
  engine.Spawn(99, "setter", [&] {
    flag.store(true);
    wp.WakeAll();
  });
  engine.Run();
  EXPECT_EQ(ran.load(), 32);
}

TEST(EngineTest, FibersKeepTheirOwnRoundingMode) {
  // The switch saves MXCSR (SSE) and the x87 control word per fiber. Two
  // fibers with different rounding modes alternate on one worker; each must
  // keep computing in its own mode, and the worker's mode must survive.
  Engine engine({.workers = 1, .lookahead_ns = 0});
  const int modes[2] = {FE_UPWARD, FE_TOWARDZERO};
  std::vector<int> order;
  int mismatches = 0;
  for (int i = 0; i < 2; ++i) {
    engine.Spawn(static_cast<uint32_t>(i), "rounder", [&, i] {
      std::fesetround(modes[i]);
      volatile double one = 1.0;
      volatile long double one_x87 = 1.0L;
      const double sse = one / 3.0;
      const long double x87 = one_x87 / 3.0L;
      for (int round = 1; round <= 5; ++round) {
        Engine::Yield(static_cast<SimTime>(round) * 10 + i);
        order.push_back(i);
        if (std::fegetround() != modes[i] || one / 3.0 != sse ||
            one_x87 / 3.0L != x87) {
          ++mismatches;
        }
      }
    });
  }
  engine.Run();
  EXPECT_EQ(mismatches, 0);
  ASSERT_EQ(order.size(), 10u);
  for (size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<int>(k % 2)) << "fibers must alternate";
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(EngineTest, ExceptionUnwindsInsideFiberAcrossPark) {
  Engine engine({.workers = 1});
  WaitPoint wp;
  bool flag = false;
  int destroyed = 0;
  std::string caught;
  struct Guard {
    int* destroyed;
    ~Guard() { ++*destroyed; }
  };
  engine.Spawn(0, "thrower", [&] {
    try {
      Guard guard{&destroyed};
      auto done = [&] { return flag; };
      while (!done()) Engine::Park(&wp, done, 0, Engine::kNoTimer);
      throw std::runtime_error("thrown after resume");
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  });
  engine.Spawn(1, "waker", [&] {
    flag = true;
    wp.WakeAll();
  });
  engine.Run();
  EXPECT_EQ(caught, "thrown after resume");
  EXPECT_EQ(destroyed, 1);
}

TEST(EngineTest, StackChurnRecyclesFiberStacks) {
  // Thousands of short tasks in waves: finished fibers' stacks are unmapped
  // and the next wave's mmaps reuse them. Under ASan this catches stale
  // stack poison left by a dead fiber.
  constexpr int kWaves = 10;
  constexpr int kPerWave = 250;
  Engine engine({.workers = 1});
  std::atomic<int> ran{0};
  engine.Spawn(0, "root", [&] {
    for (int wave = 0; wave < kWaves; ++wave) {
      ActorGroup group;
      for (int i = 0; i < kPerWave; ++i) {
        group.Spawn(static_cast<uint32_t>(i % 8), "short", [&, i] {
          volatile char scratch[512];
          for (size_t k = 0; k < sizeof(scratch); ++k) {
            scratch[k] = static_cast<char>(i + k);
          }
          ran.fetch_add(scratch[0] == static_cast<char>(i) ? 1 : 0);
        });
      }
      group.Join();
    }
  });
  engine.Run();
  EXPECT_EQ(ran.load(), kWaves * kPerWave);
}

// Recurses through `depth` frames of 4 KiB each; stores the deepest frame's
// address in *deepest and returns the sum of the depths it visited.
[[gnu::noinline]] uint64_t TouchStack(int depth, uintptr_t* deepest) {
  volatile char frame[4096];
  for (size_t k = 0; k < sizeof(frame); k += 64) {
    frame[k] = static_cast<char>(depth);
  }
  if (depth == 1) {
    *deepest = reinterpret_cast<uintptr_t>(&frame[0]);
    return 1;
  }
  return static_cast<uint64_t>(frame[0]) + TouchStack(depth - 1, deepest);
}

TEST(EngineTest, TaskUsesMostOfItsStack) {
  constexpr int kDepth = 50;  // 50 x 4 KiB = 200 KiB of a 256 KiB stack
  Engine engine({.workers = 1, .stack_bytes = 256 * 1024});
  uint64_t sum = 0;
  uintptr_t used = 0;
  engine.Spawn(0, "deep", [&] {
    volatile char top = 0;
    uintptr_t deepest = 0;
    sum = TouchStack(kDepth, &deepest);
    used = reinterpret_cast<uintptr_t>(&top) - deepest;
  });
  engine.Run();
  EXPECT_EQ(sum, static_cast<uint64_t>(kDepth * (kDepth + 1) / 2));
  EXPECT_GE(used, 200u * 1024);
}

TEST(ActorGroupTest, ThreadModeOutsideEngine) {
  // Outside any engine, ActorGroup spawns real threads — the historical
  // behavior every existing bench relies on.
  ActorGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    group.Spawn(static_cast<uint32_t>(i), "t", [&] { ran.fetch_add(1); });
  }
  group.Join();
  EXPECT_EQ(ran.load(), 4);
}

TEST(ActorGroupTest, EngineModeInsideTask) {
  Engine engine({.workers = 2});
  std::atomic<int> ran{0};
  engine.Spawn(0, "root", [&] {
    ActorGroup group;
    for (int i = 0; i < 8; ++i) {
      group.Spawn(static_cast<uint32_t>(i), "actor",
                  [&] { ran.fetch_add(1); });
    }
    group.Join();
    EXPECT_EQ(ran.load(), 8);
  });
  engine.Run();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ProgressEpochTest, BumpAdvancesAndIdleWaitReturns) {
  const uint64_t before = ProgressEpoch();
  BumpProgress();
  EXPECT_GT(ProgressEpoch(), before);
}

TEST(ProgressEpochTest, IdleWaitParksUntilBump) {
  Engine engine({.workers = 1});
  std::vector<int> order;
  engine.Spawn(0, "poller", [&] {
    const uint64_t seen = ProgressEpoch();
    // Nothing produced yet: IdleWait must park this task and let the
    // producer run, not spin.
    IdleWait(seen);
    order.push_back(1);
  });
  engine.Spawn(1, "producer", [&] {
    order.push_back(0);
    BumpProgress();
  });
  engine.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

}  // namespace
}  // namespace dfi::exec
