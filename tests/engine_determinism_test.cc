// Determinism of the emulation engine: every actor is a fiber on one OS
// thread, scheduled in (virtual time, spawn id) order, so two runs of the
// same seeded workload must report identical results: per-channel FIFO
// delivery sequences, content checksums, completion counts, the fault
// plan's event trace and the timing of a failover.

#include <array>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/consensus/consensus.h"
#include "apps/pipeline/streaming_pipeline.h"
#include "bench_util/workload.h"
#include "common/exec/engine.h"
#include "core/dfi.h"

namespace dfi {
namespace {

constexpr uint32_t kSources = 4;
constexpr uint32_t kTargets = 4;
constexpr uint64_t kTuplesPerSource = 4000;

/// Everything the shuffle workload externally produces. Per-channel
/// sequence hashes witness FIFO delivery order (deterministic by
/// construction); target sums witness content independent of the
/// cross-channel interleave (which legitimately varies with scheduling).
struct ShuffleTrace {
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> channel_hash;
  std::array<uint64_t, kTargets> target_tuples{};
  uint64_t total_tuples = 0;

  bool operator==(const ShuffleTrace& o) const {
    return channel_hash == o.channel_hash &&
           target_tuples == o.target_tuples &&
           total_tuples == o.total_tuples;
  }
};

uint64_t HashStep(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// The workload body: 4 sources push seeded key streams through a hashed
/// shuffle, 4 targets drain and fingerprint what they see. Must run on an
/// engine (ShuffleOnEngine).
ShuffleTrace ShuffleWorkload(uint64_t seed) {
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(kSources + kTargets)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec spec;
  spec.name = "det.shuffle";
  for (uint32_t s = 0; s < kSources; ++s) {
    spec.sources.Append(Endpoint{addrs[s], 0});
  }
  for (uint32_t t = 0; t < kTargets; ++t) {
    spec.targets.Append(Endpoint{addrs[kSources + t], 0});
  }
  spec.schema = Schema{{"key", DataType::kUInt64}};
  spec.options.segments_per_ring = 8;  // shallow rings: handoff-heavy
  spec.routing = [](TupleView t, uint32_t m) {
    return static_cast<uint32_t>(t.Get<uint64_t>(0) % m);
  };
  DFI_CHECK(dfi.InitShuffleFlow(std::move(spec)).ok());

  ShuffleTrace trace;
  std::array<std::map<uint32_t, uint64_t>, kTargets> per_channel;
  std::array<uint64_t, kTargets> counts{};

  exec::ActorGroup actors;
  for (uint32_t s = 0; s < kSources; ++s) {
    actors.Spawn("src." + std::to_string(s), [&dfi, s, seed] {
      auto src = dfi.CreateShuffleSource("det.shuffle", s);
      DFI_CHECK(src.ok());
      uint64_t x = seed + s * 0x9e3779b97f4a7c15ull + 1;
      for (uint64_t i = 0; i < kTuplesPerSource; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        DFI_CHECK((*src)->Push(&x).ok());
      }
      DFI_CHECK((*src)->Close().ok());
    });
  }
  for (uint32_t t = 0; t < kTargets; ++t) {
    actors.Spawn("tgt." + std::to_string(t), [&dfi, &per_channel, &counts,
                                              t] {
      auto tgt = dfi.CreateShuffleTarget("det.shuffle", t);
      DFI_CHECK(tgt.ok());
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        DFI_CHECK(r == ConsumeResult::kOk);
        const uint64_t* keys = reinterpret_cast<const uint64_t*>(seg.payload);
        const uint64_t n = seg.bytes / sizeof(uint64_t);
        uint64_t& h = per_channel[t][seg.source_index];
        for (uint64_t i = 0; i < n; ++i) h = HashStep(h, keys[i]);
        counts[t] += n;
      }
    });
  }
  actors.Join();

  for (uint32_t t = 0; t < kTargets; ++t) {
    for (const auto& [src, h] : per_channel[t]) {
      trace.channel_hash[{src, t}] = h;
    }
    trace.target_tuples[t] = counts[t];
    trace.total_tuples += counts[t];
  }
  return trace;
}

ShuffleTrace ShuffleOnEngine(uint64_t seed) {
  return exec::RunOnEngine([&] { return ShuffleWorkload(seed); });
}

TEST(EngineDeterminismTest, ShuffleTraceIdenticalAcrossRuns) {
  const uint64_t seed = 42;
  const ShuffleTrace a = ShuffleOnEngine(seed);
  EXPECT_EQ(a.total_tuples, uint64_t{kSources} * kTuplesPerSource);
  EXPECT_TRUE(ShuffleOnEngine(seed) == a) << "shuffle trace diverged";
}

TEST(EngineDeterminismTest, ShuffleSeedChangesTrace) {
  // Sanity: the fingerprint actually depends on the data.
  EXPECT_FALSE(ShuffleOnEngine(1) == ShuffleOnEngine(2));
}

// ---------------------------------------------------------------------------
// Adaptive (skew-aware) shuffle determinism
// ---------------------------------------------------------------------------

/// Witness of an adaptive zipfian shuffle. Work stealing decides *which*
/// sink consumes a segment, so the trace fingerprints channels, not sinks:
/// adaptive routing is a pure function of each source's own input prefix,
/// hence the (source, target-column) content — count and an
/// order-insensitive key sum — must be bit-identical across runs.
struct AdaptiveTrace {
  std::map<std::pair<uint32_t, uint32_t>, std::pair<uint64_t, uint64_t>>
      channels;  // (src, column) -> (tuples, key sum)
  uint64_t total_tuples = 0;

  bool operator==(const AdaptiveTrace& o) const {
    return channels == o.channels && total_tuples == o.total_tuples;
  }
};

AdaptiveTrace AdaptiveShuffleWorkload(uint64_t seed) {
  constexpr uint32_t kNodes = 2;
  constexpr uint32_t kThreadsPerNode = 4;
  constexpr uint32_t kAdTargets = kNodes * kThreadsPerNode;
  constexpr uint32_t kAdSources = 4;
  constexpr uint64_t kAdTuples = 4000;

  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(kNodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec spec;
  spec.name = "det.adaptive";
  for (uint32_t s = 0; s < kAdSources; ++s) {
    spec.sources.Append(Endpoint{addrs[s % kNodes], s});
  }
  for (uint32_t t = 0; t < kAdTargets; ++t) {
    spec.targets.Append(Endpoint{addrs[t / kThreadsPerNode], t});
  }
  spec.schema = Schema{{"key", DataType::kUInt64}};
  spec.options.segments_per_ring = 8;
  spec.options.adaptive.enabled = true;
  spec.options.adaptive.hot_factor = 1.0;
  spec.options.adaptive.epoch_tuples = 512;
  DFI_CHECK(dfi.InitShuffleFlow(std::move(spec)).ok());

  std::array<AdaptiveTrace, kAdTargets> local;
  exec::ActorGroup actors;
  for (uint32_t s = 0; s < kAdSources; ++s) {
    actors.Spawn("src." + std::to_string(s), [&dfi, s, seed] {
      auto rel =
          bench::GenerateZipfianRelation(kAdTuples, 1 << 16, 1.1, seed + s);
      auto src = dfi.CreateShuffleSource("det.adaptive", s);
      DFI_CHECK(src.ok());
      for (const auto& t : rel) {
        DFI_CHECK((*src)->Push(&t.key).ok());
      }
      DFI_CHECK((*src)->Close().ok());
    });
  }
  for (uint32_t t = 0; t < kAdTargets; ++t) {
    actors.Spawn("tgt." + std::to_string(t), [&dfi, &local, t] {
      auto tgt = dfi.CreateShuffleTarget("det.adaptive", t);
      DFI_CHECK(tgt.ok());
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        DFI_CHECK(r == ConsumeResult::kOk);
        const uint64_t* keys = reinterpret_cast<const uint64_t*>(seg.payload);
        const uint64_t n = seg.bytes / sizeof(uint64_t);
        auto& slot = local[t].channels[{seg.source_index, seg.target_column}];
        for (uint64_t i = 0; i < n; ++i) {
          slot.second += HashStep(0, keys[i]);  // commutative content sum
        }
        slot.first += n;
        local[t].total_tuples += n;
      }
    });
  }
  actors.Join();

  AdaptiveTrace trace;
  for (const auto& part : local) {
    for (const auto& [ch, v] : part.channels) {
      auto& slot = trace.channels[ch];
      slot.first += v.first;
      slot.second += v.second;
    }
    trace.total_tuples += part.total_tuples;
  }
  return trace;
}

AdaptiveTrace AdaptiveOnEngine(uint64_t seed) {
  return exec::RunOnEngine([&] { return AdaptiveShuffleWorkload(seed); });
}

TEST(EngineDeterminismTest, AdaptiveShuffleTraceIdenticalAcrossRuns) {
  const uint64_t seed = 42;
  const AdaptiveTrace a = AdaptiveOnEngine(seed);
  EXPECT_EQ(a.total_tuples, uint64_t{4} * 4000);
  EXPECT_TRUE(AdaptiveOnEngine(seed) == a) << "adaptive trace diverged";
}

TEST(EngineDeterminismTest, AdaptiveShuffleSeedChangesTrace) {
  EXPECT_FALSE(AdaptiveOnEngine(1) == AdaptiveOnEngine(2));
}

/// Chaos consensus: a leader crash scripted on the fault plan mid-run, then
/// failover. The content witnesses — completion count and the fault plan's
/// canonical event trace — and the timing witnesses (resubmissions,
/// recovery times) must be identical across runs.
struct ChaosTrace {
  uint64_t completed = 0;
  std::string fault_trace;
  uint64_t resubmitted = 0;
  SimTime recovery_first_reply_ns = 0;
  SimTime recovery_all_clients_ns = 0;

};

ChaosTrace ChaosWorkload() {
  consensus::ConsensusConfig cfg;
  cfg.requests_per_client = 60;
  cfg.client_window = 1;
  cfg.seed = 7;
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id :
       fabric.AddNodes(cfg.num_replicas + cfg.num_client_nodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  fabric.fault_plan().CrashNode(*fabric.ResolveAddress(addrs[0]), 200'000);
  DfiRuntime dfi(&fabric);
  auto r = consensus::RunMultiPaxos(&dfi, addrs, cfg);
  DFI_CHECK(r.ok()) << r.status();
  ChaosTrace trace;
  trace.completed = r->completed;
  trace.fault_trace = fabric.fault_plan().TraceString();
  trace.resubmitted = r->resubmitted;
  trace.recovery_first_reply_ns = r->recovery_first_reply_ns;
  trace.recovery_all_clients_ns = r->recovery_all_clients_ns;
  return trace;
}

TEST(EngineDeterminismTest, ChaosConsensusIdenticalAcrossRuns) {
  const ChaosTrace a = exec::RunOnEngine(ChaosWorkload);
  const ChaosTrace b = exec::RunOnEngine(ChaosWorkload);
  EXPECT_EQ(a.completed, uint64_t{6} * 60);
  EXPECT_GT(a.resubmitted, 0u) << "the crash must land mid-run";
  EXPECT_GT(a.recovery_first_reply_ns, 0);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.resubmitted, b.resubmitted);
  EXPECT_EQ(a.recovery_first_reply_ns, b.recovery_first_reply_ns);
  EXPECT_EQ(a.recovery_all_clients_ns, b.recovery_all_clients_ns);
}

// ---------------------------------------------------------------------------
// Multi-stage graph pipeline (ingest -> adaptive shuffle -> window ->
// combiner aggregate -> replicate -> subscribers)
// ---------------------------------------------------------------------------

/// The pipeline's witnesses: window assignment is a pure function of tuple
/// content and the combiner folds are commutative, so the full
/// group -> (COUNT, SUM) content map and the per-subscriber commutative
/// fingerprints must be identical across runs.
pipeline::PipelineResult PipelineWorkload(uint64_t seed) {
  pipeline::PipelineConfig cfg;
  cfg.num_nodes = 4;
  cfg.tuples_per_source = 2048;
  cfg.key_domain = 256;
  cfg.zipf_theta = 0.99;  // exercise the adaptive path, not just uniform
  cfg.seed = seed;
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(cfg.num_nodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);
  auto r = pipeline::RunStreamingPipeline(&dfi, addrs, cfg);
  DFI_CHECK(r.ok()) << r.status();
  return std::move(*r);
}

pipeline::PipelineResult PipelineOnEngine(uint64_t seed) {
  return exec::RunOnEngine([&] { return PipelineWorkload(seed); });
}

TEST(EngineDeterminismTest, PipelineContentIdenticalAcrossRuns) {
  const uint64_t seed = 42;
  const pipeline::PipelineResult a = PipelineOnEngine(seed);
  EXPECT_EQ(a.tuples_ingested, uint64_t{4} * 2 * 2048);
  EXPECT_FALSE(a.windows.empty());
  const pipeline::PipelineResult b = PipelineOnEngine(seed);
  EXPECT_EQ(b.windows, a.windows) << "pipeline content diverged";
  EXPECT_EQ(b.fingerprints, a.fingerprints)
      << "subscriber fingerprints diverged";
  EXPECT_EQ(b.rows_delivered, a.rows_delivered);
}

TEST(EngineDeterminismTest, PipelineSeedChangesContent) {
  EXPECT_NE(PipelineOnEngine(1).windows, PipelineOnEngine(2).windows);
}

}  // namespace
}  // namespace dfi
