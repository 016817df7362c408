// Ablation: deterministic parallel emulation engine (work-stealing
// virtual-time scheduler) vs thread-per-actor execution.
//
// The fleet is n/2 source->target pipelines (n emulated nodes), each a
// 1:1 latency-optimized shuffle flow (one tuple per segment). A bench-level
// bounded skew window keeps each producer within a few segments of its
// consumer — the tightly coupled interleaving every multi-actor emulation
// exhibits — so the pair hands off on every delivery. Thread-per-actor pays
// two kernel context switches per handoff across n oversubscribed OS
// threads; the engine switches fibers in user space, syscall-free, on a
// fixed worker pool. The skew window is pure real-time synchronization
// (it never touches a virtual clock), and the flow's own backpressure
// paths stay cold (credits never run low at this window size), so every
// virtual quantity is a push-side sequential sum or max-join: the reported
// simulated time — the last segment's wire arrival — is digit-identical
// between the modes, and the ablation isolates pure emulator overhead:
// wall-clock drops (target: >= 4x at 64 nodes), simulated time moves
// 0.00%.
//
// Part A: 64-node fleet, thread mode vs engine mode (speedup headline).
// Part B: fleet scaling 8..256 nodes, both modes (EXPERIMENTS.md table).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/exec/engine.h"

namespace dfi::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Fixed total work per fleet run, split across pipelines: within a fleet
// size the thread/engine comparison is like-for-like, and across sizes the
// thread-mode cost of oversubscription grows while total emulated work
// stays constant. Divisible by every pipeline count used below.
constexpr uint64_t kTotalTuples = 491'520;

// Actors per emulated node: each node pair carries this many independent
// 1:1 flows, each with its own source and target actor. Emulated fleets
// run many actors per node (flow endpoints, MPI ranks, replicas, clients);
// the oversubscription cost of thread-per-actor grows with the actor
// count, which is exactly what the engine removes.
constexpr uint32_t kFlowsPerPair = 4;

// Max segments a producer may run ahead of its consumer, enforced with
// real-time parking only — the tight coupling every multi-actor emulation
// exhibits. Small so the pair hands off on (nearly) every delivery.
constexpr uint64_t kSkewWindow = 4;

/// Real-time-only backpressure between one producer/consumer pair. In an
/// engine it parks the task; on threads it does a timed cv wait. Neither
/// side ever advances a virtual clock, so the window is invisible to the
/// emulation.
struct SkewGate {
  std::atomic<uint64_t> consumed{0};
  exec::WaitPoint wp;
  std::mutex mu;
  std::condition_variable cv;

  void AwaitRoom(uint64_t next) {
    auto room = [&] {
      return next < consumed.load(std::memory_order_acquire) + kSkewWindow;
    };
    while (!room()) {
      if (exec::Engine::InTask()) {
        exec::Engine::Park(&wp, room, /*now=*/0, exec::Engine::kNoTimer);
      } else {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, std::chrono::microseconds(200), room);
      }
    }
  }

  void Consumed() {
    consumed.fetch_add(1, std::memory_order_release);
    cv.notify_one();
    wp.WakeAll();
  }
};

struct FleetRun {
  double wall_s = 0;    // wall-clock seconds for the whole fleet
  SimTime sim_done = 0; // flow completion: max segment arrival (wire) time
  uint64_t tuples = 0;  // total tuples delivered (sanity)
};

/// Spawns one actor per endpoint (n/2 sources + n/2 targets) and runs the
/// fleet to completion. Called either from a plain thread (thread-per-actor
/// mode) or from inside an engine root task (engine mode) — ActorGroup
/// picks the execution vehicle.
FleetRun RunFleetBody(uint32_t nodes) {
  const uint32_t pipelines = (nodes / 2) * kFlowsPerPair;
  const uint64_t tuples = kTotalTuples / pipelines;
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, nodes);
  DfiRuntime dfi(&fabric);

  for (uint32_t p = 0; p < pipelines; ++p) {
    const uint32_t pair = p / kFlowsPerPair;
    ShuffleFlowSpec spec;
    spec.name = "pipe." + std::to_string(p);
    spec.sources.Append(Endpoint{addrs[pair], 0});
    spec.targets.Append(Endpoint{addrs[nodes / 2 + pair], 0});
    spec.schema = PaddedSchema(8);
    // Latency-optimized segments: one tuple per segment, one consumer
    // wakeup per delivery. The ring is sized so it never wraps and the
    // source's cached credit never runs low (low fires at 3/4 of the
    // ring): the source side never samples consumer progress — neither
    // slot-release timestamps nor credit-counter reads — so its virtual
    // timeline, and with it every segment's wire arrival, is a pure
    // function of the push sequence.
    spec.options.optimization = FlowOptimization::kLatency;
    spec.options.segments_per_ring = static_cast<uint32_t>(2 * tuples + 16);
    DFI_CHECK(dfi.InitShuffleFlow(std::move(spec)).ok());
  }

  std::vector<SimTime> done(pipelines, 0);
  std::vector<uint64_t> counts(pipelines, 0);
  std::vector<std::unique_ptr<SkewGate>> gates;
  gates.reserve(pipelines);
  for (uint32_t p = 0; p < pipelines; ++p) {
    gates.push_back(std::make_unique<SkewGate>());
  }
  exec::ActorGroup actors;
  for (uint32_t p = 0; p < pipelines; ++p) {
    const uint32_t src_node = p / kFlowsPerPair;
    const uint32_t tgt_node = nodes / 2 + p / kFlowsPerPair;
    actors.Spawn(src_node, "src." + std::to_string(p),
                 [&dfi, &gates, p, tuples] {
      auto src = dfi.CreateShuffleSource("pipe." + std::to_string(p), 0);
      DFI_CHECK(src.ok());
      for (uint64_t i = 0; i < tuples; ++i) {
        gates[p]->AwaitRoom(i);
        const uint64_t key = i;
        DFI_CHECK((*src)->Push(&key).ok());
      }
      DFI_CHECK((*src)->Close().ok());
    });
    actors.Spawn(tgt_node, "tgt." + std::to_string(p),
                 [&dfi, &gates, &done, &counts, p] {
      auto tgt = dfi.CreateShuffleTarget("pipe." + std::to_string(p), 0);
      DFI_CHECK(tgt.ok());
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        DFI_CHECK(r == ConsumeResult::kOk);
        counts[p] += seg.bytes / 8;
        // Flow completion = last wire arrival. Arrival times are computed
        // from push-side sequential state, so this max-join is identical
        // in both execution modes; the target's own clock is not (it
        // accrues a poll charge per raced ready-gate pop, and the number
        // of raced pops depends on real-time interleaving).
        done[p] = std::max(done[p], seg.arrival);
        gates[p]->Consumed();
      }
    });
  }
  actors.Join();

  FleetRun run;
  for (uint32_t p = 0; p < pipelines; ++p) {
    run.sim_done = std::max(run.sim_done, done[p]);
    run.tuples += counts[p];
  }
  return run;
}

FleetRun RunFleet(bool engine_mode, uint32_t nodes) {
  const Clock::time_point start = Clock::now();
  FleetRun run;
  if (engine_mode) {
    exec::Engine engine({.workers = 0, .lookahead_ns = 1000});
    engine.Spawn(0, "fleet-root", [&] { run = RunFleetBody(nodes); });
    engine.Run();
  } else {
    run = RunFleetBody(nodes);
  }
  run.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  DFI_CHECK_EQ(run.tuples, kTotalTuples);
  return run;
}

std::string Secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f s", s);
  return buf;
}

std::string Pct(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", p);
  return buf;
}

double SimDeltaPct(const FleetRun& a, const FleetRun& b) {
  if (a.sim_done == 0) return 0;
  return (static_cast<double>(b.sim_done) -
          static_cast<double>(a.sim_done)) *
         100.0 / static_cast<double>(a.sim_done);
}

void Run() {
  // Warm up allocator, page cache, and fiber stacks so part A's headline
  // numbers are not skewed by first-run effects.
  RunFleet(/*engine_mode=*/false, 8);
  RunFleet(/*engine_mode=*/true, 8);

  PrintSection("Ablation: parallel emulation engine, 64-node fleet");
  const FleetRun threads64 = RunFleet(/*engine_mode=*/false, 64);
  const FleetRun engine64 = RunFleet(/*engine_mode=*/true, 64);
  const double speedup = threads64.wall_s / engine64.wall_s;
  {
    TablePrinter t({"execution", "wall clock", "sim time", "sim delta"});
    t.AddRow({"thread-per-actor (256 threads)", Secs(threads64.wall_s),
              Millis(threads64.sim_done), "-"});
    t.AddRow({"engine (work-stealing fibers)", Secs(engine64.wall_s),
              Millis(engine64.sim_done),
              Pct(SimDeltaPct(threads64, engine64))});
    t.Print();
  }
  std::printf("engine speedup at 64 nodes: %.2fx (simulated time %s)\n",
              speedup, Pct(SimDeltaPct(threads64, engine64)).c_str());
  RecordMetric("engine_speedup_64_nodes", speedup, "x");
  RecordMetric("sim_time_delta_64_nodes", SimDeltaPct(threads64, engine64),
               "%");
  RecordMetric("engine_wall_64_nodes", engine64.wall_s, "s");
  RecordMetric("threads_wall_64_nodes", threads64.wall_s, "s");

  PrintSection("Fleet scaling: thread-per-actor vs engine");
  TablePrinter t({"nodes", "threads wall", "engine wall", "speedup",
                  "sim delta"});
  for (uint32_t nodes : {8u, 16u, 64u, 128u, 256u}) {
    const FleetRun th = RunFleet(/*engine_mode=*/false, nodes);
    const FleetRun en = RunFleet(/*engine_mode=*/true, nodes);
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.2fx", th.wall_s / en.wall_s);
    t.AddRow({std::to_string(nodes), Secs(th.wall_s), Secs(en.wall_s), sp,
              Pct(SimDeltaPct(th, en))});
    RecordMetric("engine_speedup_" + std::to_string(nodes) + "_nodes",
                 th.wall_s / en.wall_s, "x");
    RecordMetric("sim_time_delta_" + std::to_string(nodes) + "_nodes",
                 SimDeltaPct(th, en), "%");
  }
  t.Print();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
