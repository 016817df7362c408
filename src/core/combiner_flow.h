#ifndef DFI_CORE_COMBINER_FLOW_H_
#define DFI_CORE_COMBINER_FLOW_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/endpoint/channel_matrix.h"
#include "core/endpoint/flow_endpoint.h"
#include "core/endpoint/flow_sink.h"
#include "core/endpoint/policies.h"
#include "core/flow_options.h"
#include "core/nodes.h"
#include "core/routing.h"
#include "core/schema.h"
#include "registry/flow_state.h"
#include "rdma/rdma_env.h"

namespace dfi {

/// Declarative description of a combiner flow (paper section 4.2.3): N:M
/// communication where tuples are aggregated in the target buffer using an
/// aggregate function / group-by specification. Multiple target threads
/// may share the work; tuples are routed to them by group key so partial
/// aggregates are disjoint.
struct CombinerFlowSpec {
  std::string name;
  DfiNodes sources;
  /// Target threads. By default all endpoints must live on one node (the
  /// paper's N:1 topology); set `multi_node_targets` to spread them.
  DfiNodes targets;
  Schema schema;
  /// Group-by field. If `global_aggregate` is true it is ignored and a
  /// single aggregate row is produced per target.
  size_t group_by_index = 0;
  bool global_aggregate = false;
  std::vector<AggSpec> aggregates;
  /// Opt-in N:M topology: target threads may span multiple nodes. Group
  /// keys are partitioned across all target threads exactly as in the
  /// single-node case (partial aggregates stay disjoint), so the only
  /// difference is where the partitions live. Left off,
  /// DfiRuntime::InitCombinerFlow rejects multi-node target sets with
  /// kInvalidArgument to catch accidental fan-out.
  bool multi_node_targets = false;
  FlowOptions options;
};

/// Shared state of a combiner flow: the same channel matrix as a shuffle
/// flow plus the aggregation specification.
class CombinerFlowState : public FlowStateBase {
 public:
  CombinerFlowState(CombinerFlowSpec spec, rdma::RdmaEnv* env);

  const CombinerFlowSpec& spec() const { return spec_; }
  rdma::RdmaEnv* env() { return env_; }
  ChannelMatrix* matrix() { return &matrix_; }
  uint32_t num_sources() const {
    return static_cast<uint32_t>(spec_.sources.size());
  }
  uint32_t num_targets() const {
    return static_cast<uint32_t>(spec_.targets.size());
  }
  ChannelShared* channel(uint32_t source, uint32_t target) {
    return matrix_.channel(source, target);
  }
  ReadyGate* target_gate(uint32_t target) {
    return matrix_.target_gate(target);
  }
  net::NodeId source_node(uint32_t source) const {
    return source_nodes_[source];
  }
  const std::vector<net::NodeId>& source_nodes() const {
    return source_nodes_;
  }

  /// Tears the whole flow down by poisoning every channel; all
  /// participants' next operation fails with `cause`.
  void Abort(const Status& cause) override { matrix_.PoisonAll(cause); }

 private:
  const CombinerFlowSpec spec_;
  rdma::RdmaEnv* const env_;
  std::vector<net::NodeId> source_nodes_;
  std::vector<net::NodeId> target_nodes_;
  ChannelMatrix matrix_;
};

/// Source handle of a combiner flow: a FlowEndpoint whose Partitioner
/// routes by group key (or round-robin for global aggregates) to the
/// target thread owning that key's partition.
class CombinerSource {
 public:
  CombinerSource(std::shared_ptr<CombinerFlowState> state,
                 uint32_t source_index);

  CombinerSource(const CombinerSource&) = delete;
  CombinerSource& operator=(const CombinerSource&) = delete;

  Status Push(const void* tuple) {
    return endpoint_->Push(tuple, &partitioner_);
  }
  Status Flush() { return endpoint_->Flush(); }
  Status Close() { return endpoint_->Close(); }

  /// Aborts this source's channels without a clean end-of-flow; targets
  /// observe the teardown and their ConsumeAggregate returns kError.
  void Abort(const Status& cause) { endpoint_->Abort(cause); }

  const Schema& schema() const { return state_->spec().schema; }
  VirtualClock& clock() { return clock_; }

 private:
  std::shared_ptr<CombinerFlowState> state_;
  const uint32_t source_index_;
  VirtualClock clock_;
  Partitioner partitioner_;  // group-key / round-robin / single-target
  std::optional<FlowEndpoint> endpoint_;
};

/// Target handle of a combiner flow: a FlowSink feeding an Aggregator
/// policy — segments are drained through the unified transport and every
/// tuple folded into its group's accumulators, then the aggregate rows are
/// yielded.
class CombinerTarget {
 public:
  CombinerTarget(std::shared_ptr<CombinerFlowState> state,
                 uint32_t target_index);

  CombinerTarget(const CombinerTarget&) = delete;
  CombinerTarget& operator=(const CombinerTarget&) = delete;

  /// Blocking: next aggregate row. The first call drains the entire flow
  /// (aggregation happens as segments arrive); returns kFlowEnd after the
  /// last row, or kError (see last_status()) when the flow fails while
  /// draining — partial aggregates are discarded, not surfaced.
  ConsumeResult ConsumeAggregate(AggRow* out);

  /// Aborts the target side: blocked sources wake with kAborted.
  void Abort(const Status& cause) { sink_->Abort(cause); }

  /// The failure behind the last ConsumeResult::kError (OK otherwise).
  const Status& last_status() const { return last_status_; }

  /// Number of input tuples folded so far.
  uint64_t tuples_aggregated() const { return aggregator_->tuples_folded(); }
  VirtualClock& clock() { return clock_; }

 private:
  Status Drain();

  std::shared_ptr<CombinerFlowState> state_;
  const uint32_t target_index_;
  const net::SimConfig* config_;
  VirtualClock clock_;
  std::optional<FlowSink> sink_;
  std::optional<Aggregator> aggregator_;
  bool drained_ = false;
  Status last_status_;
};

}  // namespace dfi

#endif  // DFI_CORE_COMBINER_FLOW_H_
