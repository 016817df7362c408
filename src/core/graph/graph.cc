#include "core/graph/graph.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/graph/lowering.h"

namespace dfi::graph {
namespace {

Diagnostic VertexDiag(DiagCode code, const std::string& vertex,
                      std::string message) {
  return Diagnostic{code, vertex, "", std::move(message)};
}

Diagnostic EdgeDiag(DiagCode code, const std::string& vertex,
                    const std::string& edge, std::string message) {
  return Diagnostic{code, vertex, edge, std::move(message)};
}

/// Ordering the lowered transport of `edge` delivers on its own, before
/// composing with what arrives upstream.
Ordering TransportOrdering(const EdgeSpec& edge) {
  switch (edge.kind) {
    case EdgeKind::kShuffle:
      // Static routing preserves per-(source, key) FIFO. Adaptive
      // re-splitting spreads a hot key over sibling targets, which breaks
      // it unless the sequencer-compatible ordered hand-off is on.
      if (edge.options.adaptive.enabled &&
          !edge.options.adaptive.ordered_handoff) {
        return Ordering::kNone;
      }
      return Ordering::kPerChannel;
    case EdgeKind::kReplicate:
      // The OUM sequencer (multicast + global_ordering) delivers one total
      // order; the naive transport still guarantees per-channel FIFO.
      if (edge.options.global_ordering && edge.options.use_multicast) {
        return Ordering::kGlobal;
      }
      return Ordering::kPerChannel;
    case EdgeKind::kCombiner:
      // Aggregation folds tuples commutatively; no order survives.
      return Ordering::kNone;
  }
  return Ordering::kNone;
}

/// Structural pass: names, endpoint resolution, arity, bodies, acyclicity.
/// Returns false when the graph is too broken for the typed pass to run.
bool ValidateStructure(const GraphSpec& spec,
                       const std::unordered_map<std::string, int>& vertex_of,
                       std::vector<Graph::EdgeInfo>* edge_info,
                       std::vector<Graph::VertexInfo>* vertex_info,
                       std::vector<int>* topo_order,
                       std::vector<Diagnostic>* diags) {
  const size_t before = diags->size();

  std::unordered_set<std::string> edge_names;
  for (size_t v = 0; v < spec.vertices.size(); ++v) {
    const VertexSpec& vs = spec.vertices[v];
    if (vs.name.empty()) {
      diags->push_back(VertexDiag(DiagCode::kEmptyName, "",
                                  "vertex without a name"));
    }
    if (vertex_of.at(vs.name) != static_cast<int>(v)) {
      diags->push_back(VertexDiag(DiagCode::kDuplicateName, vs.name,
                                  "vertex name used twice"));
    }
    if (vs.workers.empty()) {
      diags->push_back(VertexDiag(DiagCode::kNoWorkers, vs.name,
                                  "vertex has no worker endpoints"));
    }
  }
  for (size_t e = 0; e < spec.edges.size(); ++e) {
    const EdgeSpec& es = spec.edges[e];
    if (es.name.empty()) {
      diags->push_back(EdgeDiag(DiagCode::kEmptyName, "", "",
                                "edge (flow) without a name"));
    } else if (!edge_names.insert(es.name).second) {
      diags->push_back(EdgeDiag(DiagCode::kDuplicateName, "", es.name,
                                "edge name used twice"));
    }
    for (const std::string* end : {&es.from, &es.to}) {
      auto it = vertex_of.find(*end);
      if (it == vertex_of.end()) {
        diags->push_back(EdgeDiag(DiagCode::kUnknownVertex, *end, es.name,
                                  "edge endpoint names no declared vertex"));
        continue;
      }
      const int v = it->second;
      if (end == &es.from) {
        (*edge_info)[e].from = v;
        (*vertex_info)[v].out.push_back(static_cast<int>(e));
      } else {
        (*edge_info)[e].to = v;
        (*vertex_info)[v].in.push_back(static_cast<int>(e));
      }
    }
  }
  if (diags->size() != before) return false;

  // Arity + required bodies per operator kind.
  for (size_t v = 0; v < spec.vertices.size(); ++v) {
    const VertexSpec& vs = spec.vertices[v];
    const size_t in = (*vertex_info)[v].in.size();
    const size_t out = (*vertex_info)[v].out.size();
    auto arity = [&](bool ok, const char* want) {
      if (!ok) {
        diags->push_back(VertexDiag(
            DiagCode::kArity, vs.name,
            std::string(OpKindName(vs.kind)) + " operator requires " + want +
                ", has " + std::to_string(in) + " in / " +
                std::to_string(out) + " out"));
      }
    };
    auto body = [&](bool present, const char* what) {
      if (!present) {
        diags->push_back(VertexDiag(
            DiagCode::kMissingBody, vs.name,
            std::string(OpKindName(vs.kind)) + " operator needs a " + what));
      }
    };
    switch (vs.kind) {
      case OpKind::kSource:
        arity(in == 0 && out == 1, "0 in / 1 out");
        body(static_cast<bool>(vs.source_fn), "source_fn");
        break;
      case OpKind::kTransform:
        arity(in == 1 && out == 1, "1 in / 1 out");
        body(static_cast<bool>(vs.transform_fn), "transform_fn");
        break;
      case OpKind::kWindow:
        arity(in == 1 && out == 1, "1 in / 1 out");
        break;
      case OpKind::kAggregate:
        arity(in == 1 && out <= 1, "1 in / <= 1 out");
        break;
      case OpKind::kSink:
        arity(in == 1 && out == 0, "1 in / 0 out");
        break;
      case OpKind::kCustom:
        break;  // the application wires whatever it wants
    }
  }

  // Kahn topological sort; leftovers are on a cycle.
  std::vector<size_t> indegree(spec.vertices.size());
  for (size_t v = 0; v < spec.vertices.size(); ++v) {
    indegree[v] = (*vertex_info)[v].in.size();
  }
  std::vector<int> ready;
  for (size_t v = 0; v < spec.vertices.size(); ++v) {
    if (indegree[v] == 0) ready.push_back(static_cast<int>(v));
  }
  for (size_t head = 0; head < ready.size(); ++head) {
    const int v = ready[head];
    topo_order->push_back(v);
    for (int e : (*vertex_info)[v].out) {
      if (--indegree[(*edge_info)[e].to] == 0) {
        ready.push_back((*edge_info)[e].to);
      }
    }
  }
  if (topo_order->size() != spec.vertices.size()) {
    for (size_t v = 0; v < spec.vertices.size(); ++v) {
      if (indegree[v] > 0) {
        diags->push_back(VertexDiag(DiagCode::kCycle, spec.vertices[v].name,
                                    "vertex lies on a dataflow cycle"));
      }
    }
  }
  return diags->size() == before;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSource:
      return "source";
    case OpKind::kTransform:
      return "transform";
    case OpKind::kWindow:
      return "window";
    case OpKind::kAggregate:
      return "aggregate";
    case OpKind::kSink:
      return "sink";
    case OpKind::kCustom:
      return "custom";
  }
  return "?";
}

const char* EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kShuffle:
      return "shuffle";
    case EdgeKind::kReplicate:
      return "replicate";
    case EdgeKind::kCombiner:
      return "combiner";
  }
  return "?";
}

int Graph::FindVertex(const std::string& name) const {
  for (size_t v = 0; v < spec_.vertices.size(); ++v) {
    if (spec_.vertices[v].name == name) return static_cast<int>(v);
  }
  return -1;
}

int Graph::FindEdge(const std::string& name) const {
  for (size_t e = 0; e < spec_.edges.size(); ++e) {
    if (spec_.edges[e].name == name) return static_cast<int>(e);
  }
  return -1;
}

StatusOr<Graph> Graph::Build(GraphSpec spec, const net::Fabric* fabric,
                             std::vector<Diagnostic>* diagnostics) {
  std::vector<Diagnostic> local;
  std::vector<Diagnostic>& diags = diagnostics ? *diagnostics : local;
  diags.clear();

  Graph g;
  g.spec_ = std::move(spec);
  const GraphSpec& s = g.spec_;
  g.edge_info_.resize(s.edges.size());
  g.vertex_info_.resize(s.vertices.size());

  std::unordered_map<std::string, int> vertex_of;
  for (size_t v = 0; v < s.vertices.size(); ++v) {
    vertex_of.emplace(s.vertices[v].name, static_cast<int>(v));
  }

  // Phase A — structure. A broken structure would make the typed pass
  // report nonsense, so stop here when it fails.
  if (!ValidateStructure(s, vertex_of, &g.edge_info_, &g.vertex_info_,
                         &g.topo_order_, &diags)) {
    return DiagnosticsToStatus(diags);
  }

  // Resolve worker placements (actor domains; combiner multi-node rule).
  if (fabric != nullptr) {
    for (size_t v = 0; v < s.vertices.size(); ++v) {
      auto nodes = s.vertices[v].workers.Resolve(*fabric);
      if (!nodes.ok()) {
        diags.push_back(VertexDiag(DiagCode::kNoWorkers, s.vertices[v].name,
                                   "placement does not resolve: " +
                                       nodes.status().message()));
        continue;
      }
      g.vertex_info_[v].nodes = std::move(nodes).value();
    }
    if (!diags.empty()) return DiagnosticsToStatus(diags);
  }

  // Phase B — the typed pass, in topological order: derive each vertex's
  // produced schema and input ordering, then check every out edge.
  for (int v : g.topo_order_) {
    const VertexSpec& vs = s.vertices[v];
    VertexInfo& vi = g.vertex_info_[v];

    // Input ordering: the weakest guarantee over all in edges (roots keep
    // the trivially-total kGlobal of a single local stream).
    for (int e : vi.in) {
      vi.input_ordering =
          ComposeOrdering(vi.input_ordering, g.edge_info_[e].delivered);
    }

    // Produced schema.
    switch (vs.kind) {
      case OpKind::kSource:
      case OpKind::kTransform:
      case OpKind::kCustom:
        vi.produced = vs.output.schema;
        break;
      case OpKind::kWindow: {
        const Schema& in_schema = s.edges[vi.in[0]].type.schema;
        if (vs.window.seq_field >= in_schema.num_fields() ||
            vs.window.key_field >= in_schema.num_fields()) {
          diags.push_back(VertexDiag(
              DiagCode::kKeyOutOfRange, vs.name,
              "window seq/key field out of range for input schema " +
                  in_schema.ToString()));
          break;
        }
        auto extended = in_schema.Extend(
            Field{vs.window.out_field, DataType::kUInt64, 0});
        if (!extended.ok()) {
          diags.push_back(VertexDiag(
              DiagCode::kSchemaMismatch, vs.name,
              "window output field collides: " +
                  extended.status().message()));
          break;
        }
        vi.produced = std::move(extended).value();
        break;
      }
      case OpKind::kAggregate: {
        const EdgeSpec& in_edge = s.edges[vi.in[0]];
        std::vector<Field> fields{{"group", DataType::kUInt64, 0}};
        for (size_t a = 0; a < in_edge.aggregates.size(); ++a) {
          fields.push_back(
              Field{"a" + std::to_string(a), DataType::kDouble, 0});
        }
        auto schema = Schema::Create(std::move(fields));
        if (schema.ok()) vi.produced = std::move(schema).value();
        break;
      }
      case OpKind::kSink:
        break;  // no output
    }

    // In-edge kind constraints of the built-in operators.
    auto in_kind = [&](int i) { return s.edges[vi.in[i]].kind; };
    switch (vs.kind) {
      case OpKind::kTransform:
      case OpKind::kWindow:
        if (in_kind(0) == EdgeKind::kCombiner) {
          diags.push_back(VertexDiag(
              DiagCode::kArity, vs.name,
              std::string(OpKindName(vs.kind)) +
                  " operator cannot consume a combiner edge (aggregate "
                  "rows, not tuples); use an aggregate operator"));
        }
        break;
      case OpKind::kAggregate:
        if (in_kind(0) != EdgeKind::kCombiner) {
          diags.push_back(VertexDiag(
              DiagCode::kArity, vs.name,
              "aggregate operator requires a combiner in edge"));
        }
        break;
      case OpKind::kSink:
        if (in_kind(0) == EdgeKind::kCombiner) {
          if (!vs.agg_sink) {
            diags.push_back(VertexDiag(DiagCode::kMissingBody, vs.name,
                                       "sink on a combiner edge needs an "
                                       "agg_sink"));
          }
        } else if (!vs.tuple_sink) {
          diags.push_back(VertexDiag(DiagCode::kMissingBody, vs.name,
                                     "sink operator needs a tuple_sink"));
        }
        break;
      default:
        break;
    }

    // Out edges: schema compatibility, ordering, per-flow rules.
    for (int e : vi.out) {
      const EdgeSpec& es = s.edges[e];
      EdgeInfo& ei = g.edge_info_[e];
      const VertexSpec& to = s.vertices[ei.to];

      if (vi.produced.num_fields() > 0) {
        Status compat = CheckCompatible(vi.produced, es.type.schema);
        if (!compat.ok()) {
          diags.push_back(EdgeDiag(DiagCode::kSchemaMismatch, vs.name,
                                   es.name, compat.message()));
        }
      }

      ei.delivered =
          ComposeOrdering(vi.input_ordering, TransportOrdering(es));
      if (es.type.ordering > ei.delivered) {
        std::string why;
        if (es.type.ordering == Ordering::kGlobal &&
            TransportOrdering(es) < Ordering::kGlobal) {
          why = "global ordering requires a replicate edge with multicast "
                "and global_ordering (the OUM sequencer)";
        } else if (es.kind == EdgeKind::kShuffle &&
                   es.options.adaptive.enabled &&
                   !es.options.adaptive.ordered_handoff) {
          why = "adaptive re-splitting without ordered_handoff breaks "
                "per-channel order";
        } else if (es.kind == EdgeKind::kCombiner) {
          why = "aggregation erases delivery order";
        } else {
          why = std::string("upstream delivers only ") +
                OrderingName(ei.delivered);
        }
        diags.push_back(EdgeDiag(
            DiagCode::kOrderingUnsatisfied, vs.name, es.name,
            "edge requires " + std::string(OrderingName(es.type.ordering)) +
                " ordering but " + why));
      }

      switch (es.kind) {
        case EdgeKind::kShuffle:
          ValidateShuffleSpec(LowerShuffleEdge(es, vs, to), vs.name,
                              to.name, &diags);
          break;
        case EdgeKind::kReplicate:
          ValidateReplicateSpec(LowerReplicateEdge(es, vs, to), vs.name,
                                to.name, &diags);
          break;
        case EdgeKind::kCombiner: {
          const std::vector<net::NodeId>* target_nodes =
              fabric != nullptr ? &g.vertex_info_[ei.to].nodes : nullptr;
          ValidateCombinerSpec(LowerCombinerEdge(es, vs, to), vs.name,
                               to.name, target_nodes, &diags);
          break;
        }
      }
    }
  }

  DFI_RETURN_IF_ERROR(DiagnosticsToStatus(diags));
  return g;
}

}  // namespace dfi::graph
