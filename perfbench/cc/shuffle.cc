// Workload `shuffle`: 8 nodes x 2 threads, N:M bandwidth-optimized shuffle
// of 16 B tuples {key, push stamp} with uniform keys. The benchmark's own
// actors drive ShuffleSource::PushBatch / Close and
// ShuffleTarget::ConsumeSegment; nothing else of the library runs.

#include <algorithm>
#include <cstring>
#include <memory>

#include "cc/workloads.h"
#include "common/exec/engine.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/dfi.h"

namespace perfbench {
namespace {

constexpr uint32_t kNodes = 8;
constexpr uint32_t kThreadsPerNode = 2;
constexpr uint32_t kEndpoints = kNodes * kThreadsPerNode;
/// 8 MiB per source: 512 KiB per channel, which wraps every 32-segment
/// target ring twice, so the run reaches the ring-full steady state.
constexpr uint64_t kTuplesPerSource = 1 << 19;
/// Tuples per PushBatch call (4 KiB, half an 8 KiB segment).
constexpr uint64_t kBatch = 256;

struct Tuple {
  uint64_t key;
  uint64_t stamp;  // source clock at push (virtual ns)
};
static_assert(sizeof(Tuple) == 16, "16 B tuples");

std::vector<Tuple> Generate(uint64_t seed, uint32_t source, uint64_t n) {
  dfi::Xorshift128Plus rng(dfi::HashU64(seed * 0x9E3779B97F4A7C15ull) +
                           source);
  std::vector<Tuple> out(n);
  for (Tuple& t : out) t = {rng.Next(), 0};
  return out;
}

class ShuffleWorkload : public Workload {
 public:
  explicit ShuffleWorkload(const WorkloadParams& p)
      : inputs_(kEndpoints), expected_(kEndpoints) {
    // The generator-side reference: key-hash routing (paper option (1)),
    // HashU64(key) % targets.
    for (uint32_t s = 0; s < kEndpoints; ++s) {
      inputs_[s] = Generate(p.seed, s, kTuplesPerSource);
      for (const Tuple& t : inputs_[s]) {
        expected_[dfi::HashU64(t.key) % kEndpoints].Add(t.key);
      }
    }
  }

  Iteration Run(Tracer* tracer) override;

 private:
  // Stamps are rewritten at every push; keys never change.
  std::vector<std::vector<Tuple>> inputs_;
  std::vector<TargetDigest> expected_;
};

Iteration ShuffleWorkload::Run(Tracer* tracer) {
  const uint64_t n = kTuplesPerSource;
  Iteration it;
  it.attempted = n * kEndpoints;
  it.pushed_tuples = it.attempted;
  const auto t0 = WallClock::now();
  dfi::net::Fabric fabric;
  std::vector<std::string> addrs;
  for (dfi::net::NodeId id : fabric.AddNodes(kNodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  dfi::DfiRuntime dfi(&fabric);

  dfi::ShuffleFlowSpec spec;
  spec.name = "bench.shuffle";
  spec.sources = dfi::DfiNodes::GridOf(addrs, kThreadsPerNode);
  spec.targets = dfi::DfiNodes::GridOf(addrs, kThreadsPerNode);
  spec.schema = dfi::Schema{{"key", dfi::DataType::kUInt64},
                            {"stamp", dfi::DataType::kUInt64}};
  spec.shuffle_key_index = 0;
  {
    const auto i0 = WallClock::now();
    ScopedSpan span(tracer, "registry.init_flow", 0);
    const dfi::Status st = dfi.InitShuffleFlow(std::move(spec));
    it.layer["registry.init_flow_s"] = SecondsSince(i0);
    if (!st.ok()) {
      it.check.Fail(1, "InitShuffleFlow: " + st.ToString());
      return it;
    }
  }
  std::vector<std::unique_ptr<dfi::ShuffleSource>> sources(kEndpoints);
  std::vector<std::unique_ptr<dfi::ShuffleTarget>> targets(kEndpoints);
  {
    ScopedSpan span(tracer, "endpoint.create", 0);
    for (uint32_t e = 0; e < kEndpoints; ++e) {
      auto src = dfi.CreateShuffleSource("bench.shuffle", e);
      auto tgt = dfi.CreateShuffleTarget("bench.shuffle", e);
      if (!src.ok() || !tgt.ok()) {
        it.check.Fail(1, "creating endpoint " + std::to_string(e) + " failed");
        return it;
      }
      sources[e] = std::move(*src);
      targets[e] = std::move(*tgt);
    }
  }
  dfi::exec::Engine engine({.workers = kEngineWorkers, .lookahead_ns = 1000});
  WallClock::time_point first_push;
  bool pushed = false;
  uint64_t failed_ops = 0;
  int64_t push_modeled_ns = 0, close_modeled_ns = 0;
  int64_t consume_modeled_ns = 0;
  uint64_t segments = 0;
  std::vector<TargetDigest> observed(kEndpoints);
  std::vector<int64_t> end_clock(kEndpoints, 0);
  Samples latency;

  for (uint32_t s = 0; s < kEndpoints; ++s) {
    const uint32_t actor = 1 + s;
    engine.Spawn(s / kThreadsPerNode, "source." + std::to_string(s), [&, s,
                                                                      actor] {
      dfi::ShuffleSource& src = *sources[s];
      dfi::VirtualClock& clock = src.clock();
      Tuple* data = inputs_[s].data();
      for (uint64_t off = 0; off < n; off += kBatch) {
        const uint64_t m = std::min(kBatch, n - off);
        const int64_t stamp = clock.now();
        for (uint64_t i = 0; i < m; ++i) data[off + i].stamp = stamp;
        if (!pushed) {
          pushed = true;
          first_push = WallClock::now();
        }
        const int64_t h0 = tracer != nullptr ? tracer->Now() : 0;
        const dfi::Status st = src.PushBatch(data + off, m);
        if (tracer != nullptr) {
          tracer->Add("endpoint.push", actor, h0, tracer->Now());
        }
        push_modeled_ns += clock.now() - stamp;
        if (!st.ok()) {
          ++failed_ops;
          src.Abort(st);
          return;
        }
      }
      const int64_t v0 = clock.now();
      ScopedSpan span(tracer, "endpoint.close", actor);
      if (!src.Close().ok()) ++failed_ops;
      close_modeled_ns += clock.now() - v0;
    });
  }
  for (uint32_t t = 0; t < kEndpoints; ++t) {
    const uint32_t actor = 1 + kEndpoints + t;
    engine.Spawn(t / kThreadsPerNode, "target." + std::to_string(t), [&, t,
                                                                      actor] {
      dfi::ShuffleTarget& tgt = *targets[t];
      dfi::VirtualClock& clock = tgt.clock();
      TargetDigest digest;
      dfi::SegmentView seg;
      for (;;) {
        const int64_t v0 = clock.now();
        const int64_t h0 = tracer != nullptr ? tracer->Now() : 0;
        const dfi::ConsumeResult r = tgt.ConsumeSegment(&seg);
        if (tracer != nullptr) {
          tracer->Add("endpoint.consume", actor, h0, tracer->Now());
        }
        consume_modeled_ns += clock.now() - v0;
        if (r == dfi::ConsumeResult::kFlowEnd) break;
        if (r != dfi::ConsumeResult::kOk) {
          ++failed_ops;
          break;
        }
        ++segments;
        ScopedSpan span(tracer, "bench.verify", actor);
        // Tuples of one PushBatch share a stamp: one latency sample run
        // per stamp, not one entry per tuple.
        const int64_t now = clock.now();
        uint64_t stamp = 0, run = 0;
        for (uint32_t off = 0; off + sizeof(Tuple) <= seg.bytes;
             off += sizeof(Tuple)) {
          Tuple tuple;
          std::memcpy(&tuple, seg.payload + off, sizeof(Tuple));
          digest.Add(tuple.key);
          if (tuple.stamp != stamp && run != 0) {
            latency.Add(now - static_cast<int64_t>(stamp), run);
            run = 0;
          }
          stamp = tuple.stamp;
          ++run;
        }
        latency.Add(now - static_cast<int64_t>(stamp), run);
      }
      observed[t] = digest;
      end_clock[t] = clock.now();
    });
  }

  const HostUsage u0 = HostUsage::Now();
  const auto r0 = WallClock::now();
  {
    ScopedSpan span(tracer, "exec.run", 0, Tracer::Kind::kWait);
    engine.Run();
  }
  const auto r1 = WallClock::now();
  const HostUsage u1 = HostUsage::Now();
  RecordExec(u0, u1, std::chrono::duration<double>(r1 - r0).count(),
             &it.layer);
  it.setup_s = std::chrono::duration<double>(first_push - t0).count();
  it.run_phase_s = std::chrono::duration<double>(r1 - first_push).count();
  RecordRegistered(fabric, &it);

  // ---- modeled results ---------------------------------------------------
  for (const TargetDigest& d : observed) it.items += d.count;
  it.payload_bytes = it.items * sizeof(Tuple);
  it.modeled_completion_ns =
      *std::max_element(end_clock.begin(), end_clock.end());
  it.modeled_items_per_s =
      static_cast<double>(it.items) * 1e9 /
      static_cast<double>(std::max<int64_t>(it.modeled_completion_ns, 1));
  it.latency_samples = latency.count();
  it.latency_p50_ns = latency.Quantile(0.50);
  it.latency_p95_ns = latency.Quantile(0.95);
  it.latency_p99_ns = latency.Quantile(0.99);

  it.consumed_segments = segments;
  it.check = CheckShuffle(expected_, observed);
  if (failed_ops != 0) it.check.Fail(failed_ops, "non-OK push/close/consume");

  // ---- per-layer values ----------------------------------------------------
  MetricValues& l = it.layer;
  const double tuples = static_cast<double>(it.attempted);
  const double segs = static_cast<double>(std::max<uint64_t>(segments, 1));
  l["endpoint.push_modeled_ns_per_tuple"] = push_modeled_ns / tuples;
  l["endpoint.consume_modeled_wait_ns_per_segment"] =
      consume_modeled_ns / segs;
  l["endpoint.tuples_per_segment"] = static_cast<double>(it.items) / segs;
  l["endpoint.close_modeled_ns"] =
      static_cast<double>(close_modeled_ns) / kEndpoints;
  const int64_t min_end = *std::min_element(end_clock.begin(), end_clock.end());
  l["endpoint.target_end_skew"] =
      static_cast<double>(it.modeled_completion_ns) /
      static_cast<double>(std::max<int64_t>(min_end, 1));
  RecordNet(fabric, it.payload_bytes, it.modeled_completion_ns, &l);
  const dfi::reg::RegistryClientStats rs = dfi.registry_client().stats();
  l["registry.rpcs"] = static_cast<double>(rs.rpcs);
  l["registry.retries"] = static_cast<double>(rs.retries);
  return it;
}

}  // namespace

std::unique_ptr<Workload> MakeShuffle(const WorkloadParams& p) {
  return std::make_unique<ShuffleWorkload>(p);
}

uint64_t ShuffleInputFingerprint(const WorkloadParams& p) {
  uint64_t fp = 0;
  for (uint32_t s = 0; s < kEndpoints; ++s) {
    for (const Tuple& t : Generate(p.seed, s, 64)) fp += dfi::HashU64(t.key);
  }
  return fp;
}

}  // namespace perfbench
