#include "core/graph/executor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/dfi_runtime.h"
#include "core/graph/lowering.h"

namespace dfi::graph {
namespace {

/// Low `field_size` bytes of field `f`, zero-extended (hosts are
/// little-endian; schema accessors are memcpy-based so packing is fine).
uint64_t ReadUnsigned(const uint8_t* tuple, const Schema& schema, size_t f) {
  uint64_t value = 0;
  std::memcpy(&value, tuple + schema.offset(f),
              std::min<size_t>(sizeof(value), schema.field_size(f)));
  return value;
}

/// Push-side adapter over the three flow kinds, bound to one worker.
struct OutPort {
  std::unique_ptr<ShuffleSource> shuffle;
  std::unique_ptr<ReplicateSource> replicate;
  std::unique_ptr<CombinerSource> combiner;

  Status Push(const void* tuple) {
    if (shuffle) return shuffle->Push(tuple);
    if (replicate) return replicate->Push(tuple);
    return combiner->Push(tuple);
  }
  Status Close() {
    if (shuffle) return shuffle->Close();
    if (replicate) return replicate->Close();
    return combiner->Close();
  }
  VirtualClock& clock() {
    if (shuffle) return shuffle->clock();
    if (replicate) return replicate->clock();
    return combiner->clock();
  }
};

OutPort OpenOut(const std::shared_ptr<ShuffleFlowState>& shuffle,
                const std::shared_ptr<ReplicateFlowState>& replicate,
                const std::shared_ptr<CombinerFlowState>& combiner,
                uint32_t worker) {
  OutPort port;
  if (shuffle) {
    port.shuffle = std::make_unique<ShuffleSource>(shuffle, worker);
  } else if (replicate) {
    port.replicate = std::make_unique<ReplicateSource>(replicate, worker);
  } else {
    port.combiner = std::make_unique<CombinerSource>(combiner, worker);
  }
  return port;
}

/// Consume-side adapter over the tuple-delivering flow kinds (combiner
/// targets yield AggRows instead and are handled where they occur).
struct TupleInPort {
  std::unique_ptr<ShuffleTarget> shuffle;
  std::unique_ptr<ReplicateTarget> replicate;

  ConsumeResult Consume(TupleView* out) {
    return shuffle ? shuffle->Consume(out) : replicate->Consume(out);
  }
  VirtualClock& clock() {
    return shuffle ? shuffle->clock() : replicate->clock();
  }
  Status last_status() {
    return shuffle ? shuffle->last_status() : replicate->last_status();
  }
};

TupleInPort OpenTupleIn(const std::shared_ptr<ShuffleFlowState>& shuffle,
                        const std::shared_ptr<ReplicateFlowState>& replicate,
                        uint32_t worker) {
  TupleInPort port;
  if (shuffle) {
    port.shuffle = std::make_unique<ShuffleTarget>(shuffle, worker);
  } else {
    port.replicate = std::make_unique<ReplicateTarget>(replicate, worker);
  }
  return port;
}

}  // namespace

StatusOr<std::unique_ptr<GraphRun>> Graph::Instantiate(DfiRuntime* dfi) const {
  std::vector<GraphRun::EdgeState> edges(spec_.edges.size());
  std::vector<std::pair<std::string, std::shared_ptr<FlowStateBase>>> publish;
  publish.reserve(spec_.edges.size());
  for (size_t e = 0; e < spec_.edges.size(); ++e) {
    const EdgeSpec& es = spec_.edges[e];
    const VertexSpec& from = spec_.vertices[edge_info_[e].from];
    const VertexSpec& to = spec_.vertices[edge_info_[e].to];
    std::shared_ptr<FlowStateBase> state;
    switch (es.kind) {
      case EdgeKind::kShuffle:
        edges[e].shuffle = std::make_shared<ShuffleFlowState>(
            LowerShuffleEdge(es, from, to), &dfi->rdma());
        state = edges[e].shuffle;
        break;
      case EdgeKind::kReplicate:
        edges[e].replicate = std::make_shared<ReplicateFlowState>(
            LowerReplicateEdge(es, from, to), &dfi->rdma());
        state = edges[e].replicate;
        break;
      case EdgeKind::kCombiner:
        edges[e].combiner = std::make_shared<CombinerFlowState>(
            LowerCombinerEdge(es, from, to), &dfi->rdma());
        state = edges[e].combiner;
        break;
    }
    publish.emplace_back(es.name, std::move(state));
  }

  // One batched control-plane RPC registers the whole graph (vs. one
  // Publish round trip per flow in the hand-rolled setup path).
  DFI_ASSIGN_OR_RETURN(std::vector<reg::OpResult> results,
                       dfi->registry_client().PublishBatch(publish));
  for (size_t e = 0; e < results.size(); ++e) {
    if (!results[e].status.ok()) {
      // Roll the published prefix back so a name collision leaves no
      // half-registered graph behind.
      std::vector<std::string> published;
      for (size_t p = 0; p < e; ++p) published.push_back(spec_.edges[p].name);
      if (!published.empty()) {
        (void)dfi->registry_client().CloseBatch(published);
      }
      return Status(results[e].status.code(),
                    "edge '" + spec_.edges[e].name +
                        "': " + results[e].status.message());
    }
  }
  return std::unique_ptr<GraphRun>(
      new GraphRun(*this, dfi, std::move(edges)));
}

GraphRun::GraphRun(Graph graph, DfiRuntime* dfi, std::vector<EdgeState> edges)
    : graph_(std::move(graph)), dfi_(dfi), edges_(std::move(edges)) {
  for (const EdgeSpec& es : graph_.spec().edges) {
    flow_names_.push_back(es.name);
  }
  vertex_stats_.resize(graph_.spec().vertices.size());
}

GraphRun::~GraphRun() {
  if (started_ && !finished_) (void)Finish();
}

Status GraphRun::Start() {
  if (started_) {
    return Status::FailedPrecondition("graph '" + graph_.spec().name +
                                      "' already started");
  }
  started_ = true;
  const GraphSpec& spec = graph_.spec();
  for (size_t v = 0; v < spec.vertices.size(); ++v) {
    const VertexSpec& vs = spec.vertices[v];
    if (vs.kind == OpKind::kCustom) continue;  // application-driven
    for (uint32_t w = 0; w < vs.workers.size(); ++w) {
      actors_.Spawn(spec.name + "." + vs.name + "." + std::to_string(w),
                    [this, v = static_cast<int>(v), w] {
                      VertexStats st;
                      Status s = RunWorker(v, w, &st);
                      if (!s.ok()) {
                        Fail(graph_.spec().vertices[v].name, s);
                      }
                      AccumulateStats(v, st);
                    });
    }
  }
  return Status::OK();
}

Status GraphRun::Finish() {
  if (finished_) return status();
  actors_.Join();
  finished_ = true;
  Status removal = dfi_->RemoveFlows(flow_names_);
  Status first = status();
  return first.ok() ? removal : first;
}

Status GraphRun::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void GraphRun::Fail(const std::string& vertex, const Status& status) {
  Status cause(status.code(),
               "vertex '" + vertex + "': " + status.message());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = cause;
  }
  // Whole-graph teardown: poison every edge so peers blocked on this
  // operator observe the failure instead of deadlocking.
  for (EdgeState& es : edges_) {
    if (es.shuffle) es.shuffle->Abort(cause);
    if (es.replicate) es.replicate->Abort(cause);
    if (es.combiner) es.combiner->Abort(cause);
  }
}

void GraphRun::AccumulateStats(int vertex, const VertexStats& worker_stats) {
  std::lock_guard<std::mutex> lock(mu_);
  VertexStats& vs = vertex_stats_[vertex];
  vs.tuples_in += worker_stats.tuples_in;
  vs.tuples_out += worker_stats.tuples_out;
  vs.max_clock = std::max(vs.max_clock, worker_stats.max_clock);
}

GraphRun::VertexStats GraphRun::stats(const std::string& name) const {
  const int v = graph_.FindVertex(name);
  if (v < 0) return VertexStats{};
  std::lock_guard<std::mutex> lock(mu_);
  return vertex_stats_[v];
}

// ---------------------------------------------------------------------------
// Operator actor bodies
// ---------------------------------------------------------------------------

Status GraphRun::RunWorker(int vertex, uint32_t worker, VertexStats* out) {
  switch (graph_.spec().vertices[vertex].kind) {
    case OpKind::kSource:
      return RunSource(vertex, worker, out);
    case OpKind::kTransform:
    case OpKind::kWindow:
      return RunTransformLike(vertex, worker, out);
    case OpKind::kAggregate:
      return RunAggregate(vertex, worker, out);
    case OpKind::kSink:
      return RunSink(vertex, worker, out);
    case OpKind::kCustom:
      break;  // never spawned
  }
  return Status::OK();
}

Status GraphRun::RunSource(int vertex, uint32_t worker, VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const int e = graph_.vertex_info(vertex).out[0];
  EdgeState& es = edges_[e];
  OutPort port = OpenOut(es.shuffle, es.replicate, es.combiner, worker);
  OpContext ctx{worker, static_cast<uint32_t>(vs.workers.size()),
                &port.clock()};
  uint64_t emitted = 0;
  EmitFn emit = [&](const void* tuple) {
    Status s = port.Push(tuple);
    if (s.ok()) ++emitted;
    return s;
  };
  DFI_RETURN_IF_ERROR(vs.source_fn(ctx, emit));
  DFI_RETURN_IF_ERROR(port.Close());
  out->tuples_out = emitted;
  out->max_clock = port.clock().now();
  return Status::OK();
}

Status GraphRun::RunTransformLike(int vertex, uint32_t worker,
                                  VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const Graph::VertexInfo& vi = graph_.vertex_info(vertex);
  EdgeState& ein = edges_[vi.in[0]];
  EdgeState& eout = edges_[vi.out[0]];
  TupleInPort in = OpenTupleIn(ein.shuffle, ein.replicate, worker);
  OutPort port = OpenOut(eout.shuffle, eout.replicate, eout.combiner, worker);
  OpContext ctx{worker, static_cast<uint32_t>(vs.workers.size()),
                &in.clock()};

  uint64_t consumed = 0, emitted = 0;
  // Pipeline clock chaining: an emitted tuple cannot leave before the
  // input that caused it arrived (plus whatever the body charged).
  EmitFn emit = [&](const void* tuple) {
    port.clock().AdvanceTo(in.clock().now());
    Status s = port.Push(tuple);
    if (s.ok()) ++emitted;
    return s;
  };

  // kWindow precomputation: output tuple = input + fused window key.
  const Schema& in_schema = graph_.spec().edges[vi.in[0]].type.schema;
  const Schema& out_schema = vi.produced;
  std::vector<uint8_t> window_buf(
      vs.kind == OpKind::kWindow ? out_schema.tuple_size() : 0);
  const size_t wkey_index = out_schema.num_fields() - 1;
  const uint64_t key_mask = vs.window.key_bits >= 64
                                ? ~uint64_t{0}
                                : (uint64_t{1} << vs.window.key_bits) - 1;

  TupleView tuple;
  for (;;) {
    ConsumeResult r = in.Consume(&tuple);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return in.last_status();
    if (r == ConsumeResult::kGap) continue;
    ++consumed;
    if (vs.kind == OpKind::kTransform) {
      DFI_RETURN_IF_ERROR(vs.transform_fn(ctx, tuple, emit));
      continue;
    }
    const uint64_t seq =
        ReadUnsigned(tuple.data(), in_schema, vs.window.seq_field);
    const uint64_t key =
        ReadUnsigned(tuple.data(), in_schema, vs.window.key_field);
    const uint64_t wkey =
        ((seq / vs.window.window_size) << vs.window.key_bits) |
        (key & key_mask);
    std::memcpy(window_buf.data(), tuple.data(), in_schema.tuple_size());
    TupleWriter(window_buf.data(), &out_schema).Set(wkey_index, wkey);
    DFI_RETURN_IF_ERROR(emit(window_buf.data()));
  }
  DFI_RETURN_IF_ERROR(port.Close());
  out->tuples_in = consumed;
  out->tuples_out = emitted;
  out->max_clock = std::max(in.clock().now(), port.clock().now());
  return Status::OK();
}

Status GraphRun::RunAggregate(int vertex, uint32_t worker, VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const Graph::VertexInfo& vi = graph_.vertex_info(vertex);
  CombinerTarget target(edges_[vi.in[0]].combiner, worker);
  OpContext ctx{worker, static_cast<uint32_t>(vs.workers.size()),
                &target.clock()};

  const bool has_out = !vi.out.empty();
  OutPort port;
  if (has_out) {
    EdgeState& eout = edges_[vi.out[0]];
    port = OpenOut(eout.shuffle, eout.replicate, eout.combiner, worker);
  }
  const Schema& row_schema = vi.produced;
  std::vector<uint8_t> row_buf(row_schema.tuple_size());

  uint64_t rows = 0;
  AggRow row;
  for (;;) {
    ConsumeResult r = target.ConsumeAggregate(&row);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return target.last_status();
    ++rows;
    if (has_out) {
      // Group keys are disjoint across aggregate workers, so each partial
      // row can be re-emitted independently.
      TupleWriter writer(row_buf.data(), &row_schema);
      writer.Set(0, row.group_key);
      for (size_t a = 0; a < row.values.size(); ++a) {
        writer.Set(1 + a, row.values[a]);
      }
      port.clock().AdvanceTo(target.clock().now());
      DFI_RETURN_IF_ERROR(port.Push(row_buf.data()));
    } else if (vs.agg_sink) {
      DFI_RETURN_IF_ERROR(vs.agg_sink(ctx, row));
    }
  }
  if (has_out) DFI_RETURN_IF_ERROR(port.Close());
  out->tuples_in = target.tuples_aggregated();
  out->tuples_out = rows;
  out->max_clock = has_out
                       ? std::max(target.clock().now(), port.clock().now())
                       : target.clock().now();
  return Status::OK();
}

Status GraphRun::RunSink(int vertex, uint32_t worker, VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const Graph::VertexInfo& vi = graph_.vertex_info(vertex);
  EdgeState& ein = edges_[vi.in[0]];
  OpContext ctx{worker, static_cast<uint32_t>(vs.workers.size()), nullptr};
  uint64_t consumed = 0;

  if (ein.combiner) {
    CombinerTarget target(ein.combiner, worker);
    ctx.clock = &target.clock();
    AggRow row;
    for (;;) {
      ConsumeResult r = target.ConsumeAggregate(&row);
      if (r == ConsumeResult::kFlowEnd) break;
      if (r == ConsumeResult::kError) return target.last_status();
      ++consumed;
      DFI_RETURN_IF_ERROR(vs.agg_sink(ctx, row));
    }
    out->tuples_in = consumed;
    out->max_clock = target.clock().now();
    return Status::OK();
  }

  TupleInPort in = OpenTupleIn(ein.shuffle, ein.replicate, worker);
  ctx.clock = &in.clock();
  TupleView tuple;
  for (;;) {
    ConsumeResult r = in.Consume(&tuple);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return in.last_status();
    if (r == ConsumeResult::kGap) continue;
    ++consumed;
    DFI_RETURN_IF_ERROR(vs.tuple_sink(ctx, tuple));
  }
  out->tuples_in = consumed;
  out->max_clock = in.clock().now();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// kCustom endpoint claims
// ---------------------------------------------------------------------------

StatusOr<int> GraphRun::CheckClaim(const std::string& edge, EdgeKind kind,
                                   uint32_t worker, bool source_side) const {
  const int e = graph_.FindEdge(edge);
  if (e < 0) {
    return Status::NotFound("graph '" + graph_.spec().name +
                            "' has no edge '" + edge + "'");
  }
  const EdgeSpec& es = graph_.spec().edges[e];
  if (es.kind != kind) {
    return Status::InvalidArgument(
        "edge '" + edge + "' is a " + EdgeKindName(es.kind) +
        " flow, not a " + EdgeKindName(kind) + " flow");
  }
  const VertexSpec& side = graph_.spec().vertices[
      source_side ? graph_.edge_info(e).from : graph_.edge_info(e).to];
  if (worker >= side.workers.size()) {
    return Status::OutOfRange(
        "worker " + std::to_string(worker) + " out of range for vertex '" +
        side.name + "' (" + std::to_string(side.workers.size()) +
        " workers)");
  }
  return e;
}

StatusOr<std::unique_ptr<ShuffleSource>> GraphRun::ClaimShuffleSource(
    const std::string& edge, uint32_t worker) {
  DFI_ASSIGN_OR_RETURN(int e,
                       CheckClaim(edge, EdgeKind::kShuffle, worker, true));
  return std::make_unique<ShuffleSource>(edges_[e].shuffle, worker);
}

StatusOr<std::unique_ptr<ShuffleTarget>> GraphRun::ClaimShuffleTarget(
    const std::string& edge, uint32_t worker) {
  DFI_ASSIGN_OR_RETURN(int e,
                       CheckClaim(edge, EdgeKind::kShuffle, worker, false));
  return std::make_unique<ShuffleTarget>(edges_[e].shuffle, worker);
}

StatusOr<std::unique_ptr<ReplicateSource>> GraphRun::ClaimReplicateSource(
    const std::string& edge, uint32_t worker) {
  DFI_ASSIGN_OR_RETURN(int e,
                       CheckClaim(edge, EdgeKind::kReplicate, worker, true));
  return std::make_unique<ReplicateSource>(edges_[e].replicate, worker);
}

StatusOr<std::unique_ptr<ReplicateTarget>> GraphRun::ClaimReplicateTarget(
    const std::string& edge, uint32_t worker) {
  DFI_ASSIGN_OR_RETURN(int e,
                       CheckClaim(edge, EdgeKind::kReplicate, worker, false));
  return std::make_unique<ReplicateTarget>(edges_[e].replicate, worker);
}

StatusOr<std::unique_ptr<CombinerSource>> GraphRun::ClaimCombinerSource(
    const std::string& edge, uint32_t worker) {
  DFI_ASSIGN_OR_RETURN(int e,
                       CheckClaim(edge, EdgeKind::kCombiner, worker, true));
  return std::make_unique<CombinerSource>(edges_[e].combiner, worker);
}

StatusOr<std::unique_ptr<CombinerTarget>> GraphRun::ClaimCombinerTarget(
    const std::string& edge, uint32_t worker) {
  DFI_ASSIGN_OR_RETURN(int e,
                       CheckClaim(edge, EdgeKind::kCombiner, worker, false));
  return std::make_unique<CombinerTarget>(edges_[e].combiner, worker);
}

}  // namespace dfi::graph
