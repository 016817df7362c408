#ifndef DFI_CORE_GRAPH_GRAPH_H_
#define DFI_CORE_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/endpoint/policies.h"
#include "core/flow_options.h"
#include "core/graph/diagnostics.h"
#include "core/nodes.h"
#include "core/routing.h"
#include "core/schema.h"

namespace dfi {

class DfiRuntime;

namespace graph {

class GraphRun;

/// Operator vocabulary: the vertex kinds of a dataflow graph. Each vertex
/// runs one actor per worker endpoint in its placement; edges between
/// vertices are DFI flows (DESIGN.md §14).
enum class OpKind : uint8_t {
  kSource,     ///< generates tuples (source_fn), out-degree 1
  kTransform,  ///< per-tuple map (transform_fn), 1 in / 1 out
  kWindow,     ///< built-in transform appending a windowed group key
  kAggregate,  ///< target side of a combiner edge; re-emits AggRows
  kSink,       ///< consumes tuples (tuple_sink) or agg rows (agg_sink)
  kCustom,     ///< application claims the endpoints (GraphRun::Claim*)
};

const char* OpKindName(OpKind kind);

/// The flow type an edge lowers onto (paper Table 1).
enum class EdgeKind : uint8_t {
  kShuffle,    ///< N:M keyed partitioning
  kReplicate,  ///< all-to-all fan-out (optional multicast + ordering)
  kCombiner,   ///< group-by aggregation at the target
};

const char* EdgeKindName(EdgeKind kind);

/// Per-worker execution context handed to operator callbacks. `clock` is
/// the worker's driving virtual clock — the consume-side clock for
/// operators with inputs, the push-side clock for sources — so callbacks
/// can charge their own per-tuple CPU costs.
struct OpContext {
  uint32_t worker = 0;
  uint32_t num_workers = 1;
  VirtualClock* clock = nullptr;
};

/// Emits one packed tuple onto the vertex's out edge.
using EmitFn = std::function<Status(const void*)>;
/// Source body: push tuples through `emit` until done; the executor closes
/// the flow afterwards.
using SourceFn = std::function<Status(OpContext&, const EmitFn&)>;
/// Transform body: called once per input tuple; may emit 0..n tuples.
using TransformFn = std::function<Status(OpContext&, TupleView, const EmitFn&)>;
/// Sink bodies: one call per delivered tuple / aggregate row.
using TupleSinkFn = std::function<Status(OpContext&, TupleView)>;
using AggSinkFn = std::function<Status(OpContext&, const AggRow&)>;

/// kWindow configuration: the operator appends a uint64 field
/// `out_field = (seq / window_size) << key_bits | (key & mask)` — a
/// data-derived window id fused with the grouping key, so downstream
/// combiner edges group per (window, key) and the assignment is a pure
/// function of tuple content (deterministic at any pool size).
struct WindowOpSpec {
  size_t seq_field = 0;        ///< monotone per-source sequence field
  size_t key_field = 0;        ///< grouping key field
  uint64_t window_size = 1024; ///< sequence numbers per window
  uint32_t key_bits = 20;      ///< low bits of the fused id carrying the key
  std::string out_field = "wkey";
};

/// One operator vertex. Exactly the members matching `kind` are read; the
/// typed validation pass rejects missing bodies (kMissingBody) and illegal
/// in/out degrees (kArity).
struct VertexSpec {
  std::string name;
  OpKind kind = OpKind::kCustom;
  /// Worker endpoints: worker w of this vertex is endpoint index w of every
  /// adjacent edge ("Parameterized Dataflow": the count is a graph
  /// parameter, not hard-coded wiring).
  DfiNodes workers;
  /// Type produced on the out edge (kSource / kTransform / kCustom with an
  /// output). kWindow and kAggregate derive theirs; leave empty there.
  EdgeType output;
  SourceFn source_fn;
  TransformFn transform_fn;
  TupleSinkFn tuple_sink;
  AggSinkFn agg_sink;
  WindowOpSpec window;
};

/// One typed edge: a DFI flow carrying `type.schema`, requiring
/// `type.ordering` from the lowered transport.
struct EdgeSpec {
  std::string name;  ///< flow name published in the registry; unique
  std::string from;
  std::string to;
  EdgeKind kind = EdgeKind::kShuffle;
  EdgeType type;
  /// Shuffle: key field of the default key-hash routing. Combiner: the
  /// group-by field.
  size_t key_index = 0;
  /// Shuffle-only routing override (see ShuffleFlowSpec::routing).
  RoutingSpec routing;
  /// Combiner-only aggregation spec.
  std::vector<AggSpec> aggregates;
  bool global_aggregate = false;
  bool multi_node_targets = false;
  FlowOptions options;
};

struct GraphSpec {
  std::string name;
  std::vector<VertexSpec> vertices;
  std::vector<EdgeSpec> edges;
};

/// A validated dataflow graph. Build() is the compile-time-ish typed
/// diagnostic pass: it checks structure (names, arity, acyclicity), schema
/// compatibility across every edge, ordering requirements against what each
/// lowered transport can deliver (composed along chains — the weakest
/// upstream link wins), adaptive-routing legality and combiner topology —
/// every finding names the offending vertex/edge (see Diagnostic). The
/// scattered per-flow InvalidArguments of DfiRuntime::Init*Flow are thin
/// wrappers over the same rules (single-edge graphs).
class Graph {
 public:
  /// Validates `spec`. On failure returns InvalidArgument joining every
  /// finding; `diagnostics` (optional) receives the structured list either
  /// way. `fabric` resolves worker placements (needed by the combiner
  /// multi-node rule and the executor's actor domains).
  static StatusOr<Graph> Build(GraphSpec spec, const net::Fabric* fabric,
                               std::vector<Diagnostic>* diagnostics = nullptr);

  const GraphSpec& spec() const { return spec_; }

  /// Lowers the graph onto the endpoint layer: constructs every edge's flow
  /// state, publishes all of them through ONE batched control-plane RPC
  /// (RegistryClient::PublishBatch), and prepares the operator actors.
  StatusOr<std::unique_ptr<GraphRun>> Instantiate(DfiRuntime* dfi) const;

  // ---- Resolved structure (used by the executor and tests) ---------------
  struct EdgeInfo {
    int from = -1;  ///< vertex index
    int to = -1;
    /// Strongest ordering the lowered transport delivers end to end,
    /// composed with the upstream vertex's ordering (weakest link).
    Ordering delivered = Ordering::kNone;
  };
  struct VertexInfo {
    std::vector<int> in;   ///< edge indices, spec order
    std::vector<int> out;
    /// Resolved schema this vertex emits (derived for kWindow/kAggregate).
    Schema produced;
    /// Ordering of the stream arriving at this vertex (kGlobal for roots).
    Ordering input_ordering = Ordering::kGlobal;
    /// Fabric nodes of the worker placement (empty without a fabric).
    std::vector<net::NodeId> nodes;
  };
  const EdgeInfo& edge_info(size_t e) const { return edge_info_[e]; }
  const VertexInfo& vertex_info(size_t v) const { return vertex_info_[v]; }
  /// Vertex index by name (-1 when unknown).
  int FindVertex(const std::string& name) const;
  int FindEdge(const std::string& name) const;

 private:
  // StatusOr<Graph> default-constructs its value slot; nobody else can
  // create an unvalidated Graph.
  friend class dfi::StatusOr<Graph>;
  Graph() = default;

  GraphSpec spec_;
  std::vector<EdgeInfo> edge_info_;
  std::vector<VertexInfo> vertex_info_;
  std::vector<int> topo_order_;  // vertex indices, sources first
};

}  // namespace graph
}  // namespace dfi

#endif  // DFI_CORE_GRAPH_GRAPH_H_
