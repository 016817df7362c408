#include "apps/pipeline/streaming_pipeline.h"

#include <algorithm>

#include "bench_util/workload.h"
#include "common/hash.h"

namespace dfi::pipeline {
namespace {

/// Tuple layout of the ingest stream. `val` is a small deterministic
/// function of (key, seq) so window sums stay exact integers; `ts` is the
/// source's virtual clock at emit time (the latency epoch).
Schema IngestSchema() {
  return Schema{{"key", DataType::kUInt64},
                {"seq", DataType::kUInt64},
                {"val", DataType::kUInt64},
                {"ts", DataType::kUInt64}};
}

/// IngestSchema plus the window operator's fused group key.
Schema WindowedSchema() {
  return Schema{{"key", DataType::kUInt64},
                {"seq", DataType::kUInt64},
                {"val", DataType::kUInt64},
                {"ts", DataType::kUInt64},
                {"wkey", DataType::kUInt64}};
}

/// Row schema a kAggregate vertex derives from the combiner edge below:
/// group key plus one double accumulator per aggregate, in spec order
/// (COUNT, SUM(val), MAX(ts)).
Schema RowSchema() {
  return Schema{{"group", DataType::kUInt64},
                {"a0", DataType::kDouble},
                {"a1", DataType::kDouble},
                {"a2", DataType::kDouble}};
}

struct PackedTuple {
  uint64_t key, seq, val, ts;
};
static_assert(sizeof(PackedTuple) == 32, "densely packed");

}  // namespace

/// Shared sink-side state the subscriber bodies write into (one graph run's
/// worth).
struct PipelineCollector {
  std::vector<uint64_t> fingerprints;
  std::vector<uint64_t> delivered;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> windows;  // subscriber 0
  LatencyRecorder latency;
};

graph::GraphSpec MakePipelineSpec(const PipelineConfig& config,
                                  const std::vector<std::string>& nodes,
                                  PipelineCollector* collector) {
  const uint32_t num_subscribers =
      config.num_nodes * config.subscribers_per_node;
  collector->fingerprints.assign(num_subscribers, 0);
  collector->delivered.assign(num_subscribers, 0);

  graph::GraphSpec gs;
  gs.name = "pipeline";

  graph::VertexSpec ingest;
  ingest.name = "ingest";
  ingest.kind = graph::OpKind::kSource;
  ingest.workers = DfiNodes::GridOf(nodes, config.sources_per_node);
  ingest.output = {IngestSchema(), Ordering::kNone};
  ingest.source_fn = [config](graph::OpContext& ctx,
                              const graph::EmitFn& emit) -> Status {
    const auto keys = bench::GenerateZipfianRelation(
        config.tuples_per_source, config.key_domain, config.zipf_theta,
        config.seed + ctx.worker);
    PackedTuple t;
    for (uint64_t seq = 0; seq < config.tuples_per_source; ++seq) {
      t.key = keys[seq].key;
      t.seq = seq;
      t.val = HashU64(t.key ^ (seq * 0x9E3779B97F4A7C15ull)) & 0xFFFF;
      t.ts = static_cast<uint64_t>(ctx.clock->now());
      DFI_RETURN_IF_ERROR(emit(&t));
    }
    return Status::OK();
  };

  graph::VertexSpec window;
  window.name = "window";
  window.kind = graph::OpKind::kWindow;
  window.workers = DfiNodes::GridOf(nodes, config.windows_per_node);
  window.window = {.seq_field = 1,
                   .key_field = 0,
                   .window_size = config.window_size,
                   .key_bits = config.window_key_bits,
                   .out_field = "wkey"};

  graph::VertexSpec aggregate;
  aggregate.name = "aggregate";
  aggregate.kind = graph::OpKind::kAggregate;
  aggregate.workers =
      DfiNodes::GridOf({nodes[0]}, config.aggregate_workers);

  graph::VertexSpec subscribers;
  subscribers.name = "subscribers";
  subscribers.kind = graph::OpKind::kSink;
  subscribers.workers = DfiNodes::GridOf(nodes, config.subscribers_per_node);
  subscribers.tuple_sink = [collector](graph::OpContext& ctx,
                                       TupleView row) -> Status {
    const uint64_t group = row.Get<uint64_t>(0);
    const uint64_t count = static_cast<uint64_t>(row.Get<double>(1));
    const uint64_t sum = static_cast<uint64_t>(row.Get<double>(2));
    const uint64_t max_ts = static_cast<uint64_t>(row.Get<double>(3));
    const int64_t latency =
        ctx.clock->now() - static_cast<SimTime>(max_ts);
    // Commutative per-row hash: delivery order is not deterministic across
    // engine pool sizes, the multiset of rows is.
    const uint64_t row_hash =
        HashU64(group * 0x9E3779B97F4A7C15ull ^ (count << 32) ^ sum);
    collector->fingerprints[ctx.worker] += row_hash;
    collector->delivered[ctx.worker] += 1;
    if (ctx.worker == 0) {
      collector->windows[group] = {count, sum};
    }
    collector->latency.Record(latency);
    return Status::OK();
  };

  gs.vertices = {std::move(ingest), std::move(window), std::move(aggregate),
                 std::move(subscribers)};

  graph::EdgeSpec shuffle;
  shuffle.name = "pipe.ingest";
  shuffle.from = "ingest";
  shuffle.to = "window";
  shuffle.kind = graph::EdgeKind::kShuffle;
  shuffle.type = {IngestSchema(), Ordering::kNone};
  shuffle.key_index = 0;
  shuffle.options.adaptive.enabled = config.adaptive_shuffle;

  graph::EdgeSpec combine;
  combine.name = "pipe.window";
  combine.from = "window";
  combine.to = "aggregate";
  combine.kind = graph::EdgeKind::kCombiner;
  combine.type = {WindowedSchema(), Ordering::kNone};
  combine.key_index = 4;  // wkey
  combine.aggregates = {{AggFunc::kCount, 0},
                        {AggFunc::kSum, 2},    // val
                        {AggFunc::kMax, 3}};   // ts

  graph::EdgeSpec publish;
  publish.name = "pipe.publish";
  publish.from = "aggregate";
  publish.to = "subscribers";
  publish.kind = graph::EdgeKind::kReplicate;
  publish.type = {RowSchema(), Ordering::kNone};

  gs.edges = {std::move(shuffle), std::move(combine), std::move(publish)};
  return gs;
}

StatusOr<PipelineResult> RunStreamingPipeline(
    DfiRuntime* dfi, const std::vector<std::string>& nodes,
    const PipelineConfig& config) {
  if (nodes.size() != config.num_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  PipelineCollector collector;
  DFI_ASSIGN_OR_RETURN(
      graph::Graph g,
      graph::Graph::Build(MakePipelineSpec(config, nodes, &collector),
                          &dfi->fabric()));
  DFI_ASSIGN_OR_RETURN(std::unique_ptr<graph::GraphRun> run,
                       g.Instantiate(dfi));
  DFI_RETURN_IF_ERROR(run->Start());
  DFI_RETURN_IF_ERROR(run->Finish());

  PipelineResult result;
  result.tuples_ingested = run->stats("ingest").tuples_out;
  result.windowed_tuples = run->stats("window").tuples_out;
  result.rows_published = run->stats("aggregate").tuples_out;
  result.rows_delivered = run->stats("subscribers").tuples_in;
  result.completion = run->stats("subscribers").max_clock;
  result.latency = std::move(collector.latency);
  result.windows = std::move(collector.windows);
  result.fingerprints = std::move(collector.fingerprints);
  // Every subscriber must have seen the same multiset of rows.
  for (uint64_t fp : result.fingerprints) {
    if (fp != result.fingerprints[0]) {
      return Status::Internal(
          "subscribers disagree on delivered content (replicate edge broke "
          "all-to-all delivery)");
    }
  }
  return result;
}

}  // namespace dfi::pipeline
