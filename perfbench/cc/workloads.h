#ifndef PERFBENCH_CC_WORKLOADS_H_
#define PERFBENCH_CC_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/checks.h"
#include "cc/metrics.h"
#include "cc/trace.h"
#include "net/fabric.h"

namespace perfbench {

/// The engine pool every workload runs on. One worker is the only pool at
/// which modeled time is bit-identical run to run (README.md).
inline constexpr uint32_t kEngineWorkers = 1;

/// Parameters shared by all workloads.
struct WorkloadParams {
  uint64_t seed = 1;
};

/// One iteration of one workload: every value the runner aggregates.
struct Iteration {
  // ---- modeled (virtual time); bit-identical for a given seed ------------
  uint64_t items = 0;          // tuples delivered / requests completed
  uint64_t payload_bytes = 0;  // items x payload size
  int64_t modeled_completion_ns = 0;
  double modeled_items_per_s = 0;
  int64_t latency_p50_ns = 0;
  int64_t latency_p95_ns = 0;
  int64_t latency_p99_ns = 0;  // 0 where the workload cannot observe it
  uint64_t latency_samples = 0;
  uint64_t registered_max_node_bytes = 0;

  // ---- host (wall clock) ----------------------------------------------------
  double setup_s = 0;      // iteration start -> first push
  double run_phase_s = 0;  // first push -> Engine::Run returns
  double rss_growth_mib = 0;  // peak RSS in the iteration - RSS at its start

  // ---- work counts behind the per-unit host times ---------------------------
  uint64_t pushed_tuples = 0;       // through benchmark push spans
  uint64_t consumed_segments = 0;   // through benchmark consume spans
  uint64_t sink_rows = 0;           // through benchmark sink spans

  // ---- correctness ----------------------------------------------------------
  uint64_t attempted = 0;
  CheckResult check;

  // ---- per-layer values (catalog names) ------------------------------------
  MetricValues layer;
};

/// One workload at one seed. The constructor generates the inputs and the
/// reference results once; every Run() builds a fresh fabric, runtime and
/// engine and pushes the same inputs, so modeled values must repeat.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One iteration; records spans into `tracer` unless it is null.
  virtual Iteration Run(Tracer* tracer) = 0;
};

std::unique_ptr<Workload> MakeShuffle(const WorkloadParams& p);
std::unique_ptr<Workload> MakePipeline(const WorkloadParams& p);
std::unique_ptr<Workload> MakeConsensus(const WorkloadParams& p);

/// Fingerprints of each workload's generated input; different seeds must
/// give different fingerprints.
uint64_t ShuffleInputFingerprint(const WorkloadParams& p);
uint64_t PipelineInputFingerprint(const WorkloadParams& p);
uint64_t ConsensusInputFingerprint(const WorkloadParams& p);

// ---- helpers shared by the workload files --------------------------------

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// User+sys CPU seconds and voluntary+involuntary context switches of the
/// calling thread, which runs every fiber at engine pool 1 (getrusage).
struct HostUsage {
  double cpu_s = 0;
  double ctx_switches = 0;
  static HostUsage Now();
};

/// Records exec.* (engine run) values from two HostUsage readings and the
/// Engine::Run wall time.
void RecordExec(const HostUsage& before, const HostUsage& after,
                double run_wall_s, MetricValues* layer);

/// Records net.* values from the fabric's link schedulers. `modeled_ns` is
/// the run's modeled completion.
void RecordNet(dfi::net::Fabric& fabric, uint64_t payload_bytes,
               int64_t modeled_ns, MetricValues* layer);

/// Records registered_max_node_bytes and rdma.registered_mib_total from the
/// per-node Node::registered_bytes. Every region stays registered until the
/// DfiRuntime is destroyed, so a reading after Engine::Run, with the
/// runtime alive, is the iteration's peak.
void RecordRegistered(const dfi::net::Fabric& fabric, Iteration* it);

}  // namespace perfbench

#endif  // PERFBENCH_CC_WORKLOADS_H_
