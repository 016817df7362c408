#include "cc/metrics.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

constexpr Better kUp = Better::kHigher;
constexpr Better kDown = Better::kLower;
constexpr Tier kE2e = Tier::kEndToEnd;
constexpr Tier kLayer = Tier::kPerLayer;

std::vector<MetricDef> BuildCatalog() {
  std::vector<MetricDef> c = {
      // ---- End to end (untraced run) -----------------------------------
      {"modeled_gib_s", "GiB/s", kUp, kE2e},
      {"modeled_items_per_s", "1/s", kUp, kE2e},
      {"host_items_per_s", "1/s", kUp, kE2e},
      {"setup_s", "s", kDown, kE2e},
      {"peak_rss_mib", "MiB", kDown, kE2e},
      {"registered_mib_max_node", "MiB", kDown, kE2e},
      // ---- exec: the fiber engine ---------------------------------------
      {"exec.run_wall_s", "s", kDown, kLayer},
      {"exec.cpu_s", "s", kDown, kLayer},
      {"exec.cpu_per_wall", "ratio", kDown, kLayer},
      {"exec.ctx_switches", "count", kDown, kLayer},
      {"exec.unattributed_share", "ratio", kDown, kLayer},
      // ---- endpoint: FlowEndpoint / FlowSink ----------------------------
      {"endpoint.push_host_ns_per_tuple", "ns", kDown, kLayer},
      {"endpoint.push_modeled_ns_per_tuple", "ns", kDown, kLayer},
      {"endpoint.consume_host_ns_per_segment", "ns", kDown, kLayer},
      {"endpoint.consume_modeled_wait_ns_per_segment", "ns", kDown, kLayer},
      {"endpoint.tuples_per_segment", "count", kUp, kLayer},
      {"endpoint.close_modeled_ns", "ns", kDown, kLayer},
      {"endpoint.target_end_skew", "ratio", kDown, kLayer},
      // ---- net: links and switch -----------------------------------------
      {"net.wire_bytes_per_payload_byte", "ratio", kDown, kLayer},
      {"net.egress_busy_share_max", "ratio", kUp, kLayer},
      {"net.ingress_busy_share_max", "ratio", kUp, kLayer},
      {"net.ingress_bytes_skew", "ratio", kDown, kLayer},
      // ---- rdma: registered memory ---------------------------------------
      {"rdma.registered_mib_total", "MiB", kDown, kLayer},
      // ---- registry: control plane ---------------------------------------
      {"registry.rpcs", "count", kDown, kLayer},
      {"registry.retries", "count", kDown, kLayer},
      {"registry.init_flow_s", "s", kDown, kLayer},
      // ---- graph: typed dataflow graphs ----------------------------------
      {"graph.build_s", "s", kDown, kLayer},
      {"graph.instantiate_s", "s", kDown, kLayer},
      {"graph.run_wall_s", "s", kDown, kLayer},
  };
  for (const char* v : {"ingest", "window", "aggregate", "subscribers"}) {
    const std::string p = std::string("graph.") + v;
    c.push_back({p + ".tuples_in", "count", kUp, kLayer});
    c.push_back({p + ".tuples_out", "count", kUp, kLayer});
    c.push_back({p + ".modeled_end_ms", "ms", kDown, kLayer});
  }
  const std::vector<MetricDef> tail = {
      {"pipeline.sink_host_ns_per_row", "ns", kDown, kLayer},
      // ---- modeled latency (README.md: why these are not gated) ---------
      {"modeled_latency_p50_us", "us", kDown, kLayer},
      {"modeled_latency_p95_us", "us", kDown, kLayer},
      {"modeled_latency_p99_us", "us", kDown, kLayer},
      {"sample_count", "count", kUp, kLayer},
      // ---- host self time per span name, from the traced run -------------
      {"self.setup_s", "s", kDown, kLayer},
      {"self.endpoint.push_s", "s", kDown, kLayer},
      {"self.endpoint.consume_s", "s", kDown, kLayer},
      {"self.endpoint.close_s", "s", kDown, kLayer},
      {"self.graph.sink_fn_s", "s", kDown, kLayer},
      {"self.bench_s", "s", kDown, kLayer},
      {"self.unattributed_s", "s", kDown, kLayer},
      // ---- the tracer itself ---------------------------------------------
      {"trace.spans", "count", kDown, kLayer},
      {"trace.host_overhead", "ratio", kDown, kLayer},
  };
  c.insert(c.end(), tail.begin(), tail.end());
  return c;
}

bool NameChar(char ch) {
  return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
         (ch >= '0' && ch <= '9') || ch == '_' || ch == '.' || ch == '-';
}

}  // namespace

const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> catalog = BuildCatalog();
  return catalog;
}

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& m : Catalog()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (name[0] == '_' || name[0] == '.' || name[0] == '-') return false;
  return std::all_of(name.begin(), name.end(), NameChar);
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char ch) {
    return NameChar(ch) || ch == '/' || ch == '%';
  });
}

const char* BetterName(Better better) {
  return better == Better::kHigher ? "higher" : "lower";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Samples::Add(long long value, uint64_t weight) {
  if (weight == 0) return;
  if (!runs_.empty() && runs_.back().first == value) {
    runs_.back().second += weight;
  } else {
    runs_.emplace_back(value, weight);
  }
  count_ += weight;
}

long long Samples::Quantile(double q) {
  if (count_ == 0) return 0;
  const auto rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  std::sort(runs_.begin(), runs_.end());
  uint64_t seen = 0;
  for (const auto& [value, weight] : runs_) {
    seen += weight;
    if (seen >= rank) return value;
  }
  return runs_.back().first;
}

}  // namespace perfbench
