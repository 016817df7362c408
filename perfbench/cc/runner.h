#ifndef PERFBENCH_CC_RUNNER_H_
#define PERFBENCH_CC_RUNNER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cc/metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from untraced iterations. true: untraced and
  /// traced iterations alternate; per-layer metrics, the layer table and
  /// the tracing overhead are reported.
  /// The first traced iteration is also written, relative to the working
  /// directory, to TraceFile(workload).
  bool trace = false;
};

struct RunReport {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics of the run's tier, every one of them in the catalog.
  MetricValues metrics;
  Tier tier = Tier::kEndToEnd;
};

const std::vector<std::string>& Workloads();

/// Chrome trace-event file of a traced run: the benchmark's build
/// directory, as seen from the checkout root.
std::string TraceFile(const std::string& workload);

/// Runs `options.workload` for `options.seconds`, checking every output.
/// Human-readable progress, tables and failures go to `log`.
RunReport RunBenchmark(const RunOptions& options, std::FILE* log);

/// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_CC_RUNNER_H_
