#ifndef PERFBENCH_CC_METRICS_H_
#define PERFBENCH_CC_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class Better { kHigher, kLower };

/// Whether a metric is gated end to end (printed by an untraced run) or is
/// a per-layer diagnostic (printed by a traced run).
enum class Tier { kEndToEnd, kPerLayer };

/// One declared metric. Every value the benchmark prints is looked up in
/// the catalog, so a name cannot be emitted without a unit and a direction.
struct MetricDef {
  std::string name;
  std::string unit;
  Better better;
  Tier tier;
};

/// The full catalog, end-to-end metrics first, in print order.
const std::vector<MetricDef>& Catalog();
const MetricDef* FindMetric(std::string_view name);

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
bool ValidMetricName(std::string_view name);
/// `[A-Za-z0-9_/%.-]{1,16}`.
bool ValidUnit(std::string_view unit);

const char* BetterName(Better better);

/// Values of one measurement, keyed by catalog name.
using MetricValues = std::map<std::string, double>;

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
double Median(std::vector<double> v);

/// Integer samples kept as (value, weight) runs: consecutive equal values
/// share one entry, so a batch of tuples with one stamp costs one entry.
class Samples {
 public:
  void Add(long long value, uint64_t weight = 1);
  uint64_t count() const { return count_; }
  /// Nearest-rank quantile (q in [0, 1]) over every weighted sample;
  /// reorders the runs. 0 when empty.
  long long Quantile(double q);

 private:
  std::vector<std::pair<long long, uint64_t>> runs_;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_METRICS_H_
