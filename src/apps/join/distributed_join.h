#ifndef DFI_APPS_JOIN_DISTRIBUTED_JOIN_H_
#define DFI_APPS_JOIN_DISTRIBUTED_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/dfi_runtime.h"

namespace dfi::join {

/// Configuration of the distributed joins (paper section 6.3.1: 8 nodes,
/// 64 workers total, 2.56 B x 2.56 B tuples — scaled down here; see
/// EXPERIMENTS.md).
struct JoinConfig {
  uint32_t num_nodes = 8;
  uint32_t workers_per_node = 8;
  uint64_t inner_tuples = 1 << 22;
  uint64_t outer_tuples = 1 << 22;
  /// Second-pass radix bits: buckets per worker (cache-sized partitions).
  uint32_t local_radix_bits = 6;
  uint64_t seed = 42;

  // Application-level CPU cost model (virtual ns/tuple), calibrated to a
  // few GB/s of single-thread partitioning like the paper's hardware.
  SimTime histogram_cost_ns = 2;
  SimTime partition_cost_ns = 5;
  SimTime build_cost_ns = 10;
  SimTime probe_cost_ns = 10;

  uint32_t total_workers() const { return num_nodes * workers_per_node; }
};

/// Per-phase virtual runtimes (mean across workers; the phases the paper's
/// Figure 13/14 break down). Phases that a variant does not have stay 0 —
/// e.g. DFI needs no histogram pass and no synchronization barrier.
struct JoinPhases {
  SimTime histogram = 0;
  SimTime network_partition = 0;  ///< shuffle (DFI: overlapped w/ partition)
  SimTime network_replication = 0;  ///< fragment-and-replicate variant
  SimTime sync_barrier = 0;
  SimTime local_partition = 0;  ///< 0 for DFI: streamed while consuming
  SimTime build_probe = 0;
  /// Completion time: max over workers of the final virtual clock.
  SimTime total = 0;
};

struct JoinResult {
  uint64_t matches = 0;
  JoinPhases phases;
};

/// Distributed radix hash join on two bandwidth-optimized DFI shuffle flows
/// (paper Figure 2): no histogram pass, no barrier; incoming tuples are
/// partitioned/built/probed in a streaming fashion. The flows are the typed
/// edges of a two-vertex dataflow graph (scan -> join).
StatusOr<JoinResult> RunDfiRadixJoin(DfiRuntime* dfi,
                                     const std::vector<std::string>& nodes,
                                     const JoinConfig& config);

/// Baseline: MPI radix join following Barthels et al. [2] — histogram pass,
/// exclusive-offset MPI_Put network partitioning, fence barrier, then local
/// partition + build/probe.
StatusOr<JoinResult> RunMpiRadixJoin(net::Fabric* fabric,
                                     const std::vector<net::NodeId>& nodes,
                                     const JoinConfig& config);

/// Fragment-and-replicate join: the (small) inner relation is replicated to
/// every worker over one DFI replicate flow (multicast); the outer relation
/// is probed locally without any network transfer (paper section 6.3.1,
/// "Join Adaptability"). Same graph as RunDfiRadixJoin with the inner edge
/// swapped from shuffle to replicate and no outer edge.
StatusOr<JoinResult> RunDfiReplicateJoin(DfiRuntime* dfi,
                                         const std::vector<std::string>& nodes,
                                         const JoinConfig& config);

/// Single-node reference join for correctness checks: exact number of
/// matches the distributed variants must reproduce.
uint64_t ReferenceJoinMatches(const JoinConfig& config);

}  // namespace dfi::join

#endif  // DFI_APPS_JOIN_DISTRIBUTED_JOIN_H_
