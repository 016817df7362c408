// Workload `pipeline`: the flagship dataflow graph, built here with the
// public graph API in the shape of src/apps/pipeline —
//
//   ingest --shuffle(adaptive)--> window --combiner--> aggregate
//     --replicate--> subscribers
//
// The ingest body (zipf 0.99 keys) and the subscriber sink are the
// benchmark's own; window, combiner, aggregate and replicate are the
// library's built-in operators. Graph::Build, Instantiate, Start and Finish
// are called, and timed, here.

#include <algorithm>
#include <memory>

#include "bench_util/workload.h"
#include "cc/workloads.h"
#include "common/exec/engine.h"
#include "common/hash.h"
#include "core/dfi.h"
#include "core/graph/executor.h"
#include "core/graph/graph.h"

namespace perfbench {
namespace {

namespace graph = dfi::graph;

constexpr uint32_t kNodes = 8;
constexpr uint32_t kSourcesPerNode = 2;
constexpr uint32_t kWindowsPerNode = 2;
constexpr uint32_t kAggregateWorkers = 2;
constexpr uint32_t kSubscribersPerNode = 1;
constexpr uint32_t kSources = kNodes * kSourcesPerNode;
constexpr uint32_t kSubscribers = kNodes * kSubscribersPerNode;
constexpr uint64_t kTuplesPerSource = 1 << 16;
constexpr uint64_t kKeyDomain = 1 << 10;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kWindowSize = 1024;
constexpr uint32_t kKeyBits = 20;
/// Emits per traced push span on the ingest side (at most).
constexpr uint64_t kEmitChunk = 64;
/// An emit that took longer than this parked its fiber (other fibers ran
/// meanwhile). Unparked emits take well under a microsecond; a parked one
/// lasts at least one built-in operator's turn on a segment.
constexpr int64_t kParkedNs = 5000;

struct Ingest {
  uint64_t key, seq, val, ts;
};
static_assert(sizeof(Ingest) == 32, "densely packed");

dfi::Schema IngestSchema() {
  return dfi::Schema{{"key", dfi::DataType::kUInt64},
                     {"seq", dfi::DataType::kUInt64},
                     {"val", dfi::DataType::kUInt64},
                     {"ts", dfi::DataType::kUInt64}};
}

dfi::Schema WindowedSchema() {
  return dfi::Schema{{"key", dfi::DataType::kUInt64},
                     {"seq", dfi::DataType::kUInt64},
                     {"val", dfi::DataType::kUInt64},
                     {"ts", dfi::DataType::kUInt64},
                     {"wkey", dfi::DataType::kUInt64}};
}

dfi::Schema RowSchema() {
  return dfi::Schema{{"group", dfi::DataType::kUInt64},
                     {"a0", dfi::DataType::kDouble},
                     {"a1", dfi::DataType::kDouble},
                     {"a2", dfi::DataType::kDouble}};
}

std::vector<Ingest> Generate(uint64_t seed, uint32_t worker, uint64_t n) {
  const auto keys = dfi::bench::GenerateZipfianRelation(
      n, kKeyDomain, kZipfTheta,
      dfi::HashU64(seed * 0x9E3779B97F4A7C15ull) + worker);
  std::vector<Ingest> out(n);
  for (uint64_t seq = 0; seq < n; ++seq) {
    const uint64_t key = keys[seq].key;
    out[seq] = {key, seq,
                dfi::HashU64(key ^ (seq * 0x9E3779B97F4A7C15ull)) & 0xFFFF, 0};
  }
  return out;
}

/// The window operator's group key (WindowOpSpec): window id fused with
/// the low key bits.
uint64_t WindowKey(const Ingest& t) {
  return ((t.seq / kWindowSize) << kKeyBits) |
         (t.key & ((uint64_t{1} << kKeyBits) - 1));
}

class PipelineWorkload : public Workload {
 public:
  explicit PipelineWorkload(const WorkloadParams& p)
      : inputs_(kSources) {
    // The reference COUNT / SUM(val) fold per window group.
    for (uint32_t w = 0; w < kSources; ++w) {
      inputs_[w] = Generate(p.seed, w, kTuplesPerSource);
      for (const Ingest& t : inputs_[w]) {
        auto& cs = reference_[WindowKey(t)];
        cs.first += 1;
        cs.second += t.val;
      }
    }
  }

  Iteration Run(Tracer* tracer) override;

 private:
  std::vector<std::vector<Ingest>> inputs_;
  WindowMap reference_;
};

Iteration PipelineWorkload::Run(Tracer* tracer) {
  const uint64_t n = kTuplesPerSource;
  Iteration it;
  it.attempted = n * kSources;
  it.pushed_tuples = it.attempted;
  const auto t0 = WallClock::now();
  dfi::net::Fabric fabric;
  std::vector<std::string> addrs;
  for (dfi::net::NodeId id : fabric.AddNodes(kNodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  dfi::DfiRuntime dfi(&fabric);

  WallClock::time_point first_push;
  bool pushed = false;
  int64_t push_modeled_ns = 0;
  uint64_t sink_rows = 0;
  PipelineObservation obs;
  obs.fingerprints.assign(kSubscribers, 0);
  obs.rows.assign(kSubscribers, 0);
  Samples latency;

  graph::GraphSpec gs;
  gs.name = "pipeline";
  graph::VertexSpec ingest;
  ingest.name = "ingest";
  ingest.kind = graph::OpKind::kSource;
  ingest.workers = dfi::DfiNodes::GridOf(addrs, kSourcesPerNode);
  ingest.output = {IngestSchema(), dfi::Ordering::kNone};
  ingest.source_fn = [&](graph::OpContext& ctx,
                         const graph::EmitFn& emit) -> dfi::Status {
    const uint32_t actor = 1 + ctx.worker;
    const std::vector<Ingest>& in = inputs_[ctx.worker];
    dfi::VirtualClock& clock = *ctx.clock;
    if (!pushed) {
      pushed = true;
      first_push = WallClock::now();
    }
    // Traced: one push span per run of up to kEmitChunk emits; an emit that
    // parked (longer than kParkedNs) becomes its own wait span, so the
    // built-in operators that ran meanwhile stay unattributed.
    int64_t open = tracer != nullptr ? tracer->Now() : 0;
    int64_t prev = open;
    uint64_t in_span = 0;
    for (uint64_t seq = 0; seq < n; ++seq) {
      Ingest t = in[seq];
      const int64_t v0 = clock.now();
      t.ts = static_cast<uint64_t>(v0);
      const dfi::Status st = emit(&t);
      push_modeled_ns += clock.now() - v0;
      if (!st.ok()) return st;
      if (tracer == nullptr) continue;
      const int64_t now = tracer->Now();
      if (now - prev > kParkedNs) {
        if (prev > open) tracer->Add("endpoint.push", actor, open, prev);
        tracer->Add("endpoint.push_parked", actor, prev, now,
                    Tracer::Kind::kWait);
        open = now;
        in_span = 0;
      } else if (++in_span == kEmitChunk) {
        tracer->Add("endpoint.push", actor, open, now);
        open = now;
        in_span = 0;
      }
      prev = now;
    }
    if (tracer != nullptr && prev > open) {
      tracer->Add("endpoint.push", actor, open, prev);
    }
    return dfi::Status::OK();
  };

  graph::VertexSpec window;
  window.name = "window";
  window.kind = graph::OpKind::kWindow;
  window.workers = dfi::DfiNodes::GridOf(addrs, kWindowsPerNode);
  window.window = {.seq_field = 1,
                   .key_field = 0,
                   .window_size = kWindowSize,
                   .key_bits = kKeyBits,
                   .out_field = "wkey"};

  graph::VertexSpec aggregate;
  aggregate.name = "aggregate";
  aggregate.kind = graph::OpKind::kAggregate;
  aggregate.workers = dfi::DfiNodes::GridOf({addrs[0]}, kAggregateWorkers);

  graph::VertexSpec subscribers;
  subscribers.name = "subscribers";
  subscribers.kind = graph::OpKind::kSink;
  subscribers.workers = dfi::DfiNodes::GridOf(addrs, kSubscribersPerNode);
  // One engine worker: sink bodies never run concurrently, no lock needed.
  subscribers.tuple_sink = [&](graph::OpContext& ctx,
                               dfi::TupleView row) -> dfi::Status {
    const int64_t h0 = tracer != nullptr ? tracer->Now() : 0;
    const uint64_t group = row.Get<uint64_t>(0);
    const auto count = static_cast<uint64_t>(row.Get<double>(1));
    const auto sum = static_cast<uint64_t>(row.Get<double>(2));
    const auto max_ts = static_cast<int64_t>(row.Get<double>(3));
    latency.Add(ctx.clock->now() - max_ts);
    obs.fingerprints[ctx.worker] += RowHash(group, count, sum);
    obs.rows[ctx.worker] += 1;
    if (ctx.worker == 0) obs.windows[group] = {count, sum};
    ++sink_rows;
    if (tracer != nullptr) {
      tracer->Add("graph.sink_fn", 1 + kSources + ctx.worker, h0,
                  tracer->Now());
    }
    return dfi::Status::OK();
  };
  gs.vertices = {std::move(ingest), std::move(window), std::move(aggregate),
                 std::move(subscribers)};

  graph::EdgeSpec shuffle;
  shuffle.name = "pipe.ingest";
  shuffle.from = "ingest";
  shuffle.to = "window";
  shuffle.kind = graph::EdgeKind::kShuffle;
  shuffle.type = {IngestSchema(), dfi::Ordering::kNone};
  shuffle.key_index = 0;
  shuffle.options.adaptive.enabled = true;
  graph::EdgeSpec combine;
  combine.name = "pipe.window";
  combine.from = "window";
  combine.to = "aggregate";
  combine.kind = graph::EdgeKind::kCombiner;
  combine.type = {WindowedSchema(), dfi::Ordering::kNone};
  combine.key_index = 4;  // wkey
  combine.aggregates = {{dfi::AggFunc::kCount, 0},
                        {dfi::AggFunc::kSum, 2},   // val
                        {dfi::AggFunc::kMax, 3}};  // ts
  graph::EdgeSpec publish;
  publish.name = "pipe.publish";
  publish.from = "aggregate";
  publish.to = "subscribers";
  publish.kind = graph::EdgeKind::kReplicate;
  publish.type = {RowSchema(), dfi::Ordering::kNone};
  gs.edges = {std::move(shuffle), std::move(combine), std::move(publish)};

  MetricValues& l = it.layer;
  graph::GraphRun::VertexStats vstats[4];
  const char* const kVertices[4] = {"ingest", "window", "aggregate",
                                    "subscribers"};
  dfi::exec::Engine engine({.workers = kEngineWorkers, .lookahead_ns = 1000});
  engine.Spawn(0, "pipeline-root", [&] {
    auto timed = [&](const char* span_name, const char* metric, auto&& fn) {
      const auto w0 = WallClock::now();
      ScopedSpan span(tracer, span_name, 0);
      auto r = fn();
      l[metric] = SecondsSince(w0);
      return r;
    };
    auto g = timed("graph.build", "graph.build_s",
                   [&] { return graph::Graph::Build(gs, &fabric); });
    if (!g.ok()) {
      it.check.Fail(1, "Graph::Build: " + g.status().ToString());
      return;
    }
    auto run = timed("graph.instantiate", "graph.instantiate_s",
                     [&] { return g->Instantiate(&dfi); });
    if (!run.ok()) {
      it.check.Fail(1, "Graph::Instantiate: " + run.status().ToString());
      return;
    }
    const auto s0 = WallClock::now();
    dfi::Status st;
    {
      ScopedSpan span(tracer, "graph.start", 0);
      st = (*run)->Start();
    }
    if (st.ok()) {
      // Finish parks the root until every operator ended: a wait span.
      ScopedSpan span(tracer, "graph.finish", 0, Tracer::Kind::kWait);
      st = (*run)->Finish();
    }
    l["graph.run_wall_s"] = SecondsSince(s0);
    if (!st.ok()) {
      it.check.Fail(1, "graph run: " + st.ToString());
    }
    for (int v = 0; v < 4; ++v) vstats[v] = (*run)->stats(kVertices[v]);
  });

  const HostUsage u0 = HostUsage::Now();
  const auto r0 = WallClock::now();
  {
    ScopedSpan span(tracer, "exec.run", 0, Tracer::Kind::kWait);
    engine.Run();
  }
  const auto r1 = WallClock::now();
  const HostUsage u1 = HostUsage::Now();
  RecordExec(u0, u1, std::chrono::duration<double>(r1 - r0).count(), &l);
  if (!pushed) first_push = r1;
  it.setup_s = std::chrono::duration<double>(first_push - t0).count();
  it.run_phase_s = std::chrono::duration<double>(r1 - first_push).count();
  RecordRegistered(fabric, &it);

  // ---- modeled results ---------------------------------------------------
  it.items = vstats[0].tuples_out;
  it.payload_bytes = it.items * sizeof(Ingest);
  it.modeled_completion_ns = vstats[3].max_clock;
  it.modeled_items_per_s =
      static_cast<double>(it.items) * 1e9 /
      static_cast<double>(std::max<int64_t>(it.modeled_completion_ns, 1));
  it.latency_samples = latency.count();
  it.latency_p50_ns = latency.Quantile(0.50);
  it.latency_p95_ns = latency.Quantile(0.95);
  it.latency_p99_ns = latency.Quantile(0.99);

  it.sink_rows = sink_rows;
  it.check.Merge(CheckPipeline(reference_, obs));
  if (it.items != it.attempted) {
    it.check.Fail(it.items > it.attempted ? it.items - it.attempted
                                          : it.attempted - it.items,
                  "ingest emitted " + std::to_string(it.items) +
                      " tuples, expected " + std::to_string(it.attempted));
  }
  if (vstats[1].tuples_in != it.items) {
    it.check.Fail(1, "window received " + std::to_string(vstats[1].tuples_in) +
                         " tuples, ingest sent " + std::to_string(it.items));
  }

  // ---- per-layer values ----------------------------------------------------
  l["endpoint.push_modeled_ns_per_tuple"] =
      static_cast<double>(push_modeled_ns) /
      static_cast<double>(std::max<uint64_t>(it.items, 1));
  for (int v = 0; v < 4; ++v) {
    const std::string prefix = std::string("graph.") + kVertices[v];
    l[prefix + ".tuples_in"] = static_cast<double>(vstats[v].tuples_in);
    l[prefix + ".tuples_out"] = static_cast<double>(vstats[v].tuples_out);
    l[prefix + ".modeled_end_ms"] =
        static_cast<double>(vstats[v].max_clock) / 1e6;
  }
  RecordNet(fabric, it.payload_bytes, it.modeled_completion_ns, &l);
  const dfi::reg::RegistryClientStats rs = dfi.registry_client().stats();
  l["registry.rpcs"] = static_cast<double>(rs.rpcs);
  l["registry.retries"] = static_cast<double>(rs.retries);
  // The graph publishes every edge inside Instantiate (one batched RPC).
  l["registry.init_flow_s"] = l["graph.instantiate_s"];
  return it;
}

}  // namespace

std::unique_ptr<Workload> MakePipeline(const WorkloadParams& p) {
  return std::make_unique<PipelineWorkload>(p);
}

uint64_t PipelineInputFingerprint(const WorkloadParams& p) {
  uint64_t fp = 0;
  for (uint32_t w = 0; w < kSources; ++w) {
    for (const Ingest& t : Generate(p.seed, w, 256)) {
      fp += dfi::HashU64(t.key ^ (t.val << 20));
    }
  }
  return fp;
}

}  // namespace perfbench
