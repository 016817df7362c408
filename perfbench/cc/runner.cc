#include "cc/runner.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>

#include "cc/workloads.h"

namespace perfbench {

// ---- helpers shared by the workload files ----------------------------------

HostUsage HostUsage::Now() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  HostUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

void RecordExec(const HostUsage& before, const HostUsage& after,
                double run_wall_s, MetricValues* layer) {
  const double cpu = after.cpu_s - before.cpu_s;
  (*layer)["exec.run_wall_s"] = run_wall_s;
  (*layer)["exec.cpu_s"] = cpu;
  (*layer)["exec.cpu_per_wall"] = run_wall_s > 0 ? cpu / run_wall_s : 0;
  (*layer)["exec.ctx_switches"] = after.ctx_switches - before.ctx_switches;
}

void RecordNet(dfi::net::Fabric& fabric, uint64_t payload_bytes,
               int64_t modeled_ns, MetricValues* layer) {
  double wire = 0, egress_busy = 0, ingress_busy = 0;
  double in_max = 0, in_min = 0;
  bool any_in = false;
  for (dfi::net::NodeId id = 0; id < fabric.node_count(); ++id) {
    dfi::net::Node& node = fabric.node(id);
    wire += static_cast<double>(node.egress().total_bytes());
    egress_busy = std::max(egress_busy,
                           static_cast<double>(node.egress().busy_time()));
    ingress_busy = std::max(ingress_busy,
                            static_cast<double>(node.ingress().busy_time()));
    const double in = static_cast<double>(node.ingress().total_bytes());
    if (in > 0) {
      in_max = any_in ? std::max(in_max, in) : in;
      in_min = any_in ? std::min(in_min, in) : in;
      any_in = true;
    }
  }
  const double modeled = static_cast<double>(std::max<int64_t>(modeled_ns, 1));
  (*layer)["net.wire_bytes_per_payload_byte"] =
      wire / static_cast<double>(std::max<uint64_t>(payload_bytes, 1));
  (*layer)["net.egress_busy_share_max"] = egress_busy / modeled;
  (*layer)["net.ingress_busy_share_max"] = ingress_busy / modeled;
  (*layer)["net.ingress_bytes_skew"] = in_min > 0 ? in_max / in_min : 0;
}

void RecordRegistered(const dfi::net::Fabric& fabric, Iteration* it) {
  uint64_t max = 0, sum = 0;
  for (dfi::net::NodeId id = 0; id < fabric.node_count(); ++id) {
    max = std::max(max, fabric.node(id).registered_bytes());
    sum += fabric.node(id).registered_bytes();
  }
  it->registered_max_node_bytes = max;
  it->layer["rdma.registered_mib_total"] =
      static_cast<double>(sum) / (1 << 20);
}

// ---- the runner ------------------------------------------------------------

namespace {

using MakeFn = std::function<std::unique_ptr<Workload>(const WorkloadParams&)>;
using FingerprintFn = std::function<uint64_t(const WorkloadParams&)>;

struct WorkloadEntry {
  std::string name;
  MakeFn make;
  FingerprintFn fingerprint;
};

const std::vector<WorkloadEntry>& Entries() {
  static const std::vector<WorkloadEntry> entries = {
      {"shuffle", MakeShuffle, ShuffleInputFingerprint},
      {"pipeline", MakePipeline, PipelineInputFingerprint},
      {"consensus", MakeConsensus, ConsensusInputFingerprint},
  };
  return entries;
}

/// Iterations run even when the time is up, so the determinism check always
/// compares runs of one seed and a traced run has iterations of each kind.
constexpr int kMinIterations = 3;

/// Cap on the events of the written trace file (about 13 MB).
constexpr size_t kMaxTraceEvents = 100000;

/// Per-layer values that only a traced iteration measures.
bool SpanDerived(const std::string& name) {
  return name == "endpoint.push_host_ns_per_tuple" ||
         name == "endpoint.consume_host_ns_per_segment" ||
         name == "pipeline.sink_host_ns_per_row" ||
         name == "exec.unattributed_share" || name.rfind("self.", 0) == 0 ||
         name.rfind("trace.", 0) == 0;
}

/// Span names summed into self.setup_s.
bool SetupSpan(const std::string& name) {
  return name == "registry.init_flow" || name == "endpoint.create" ||
         name == "graph.build" || name == "graph.instantiate" ||
         name == "graph.start";
}

/// Modeled values that must repeat bit for bit for one seed.
bool SameModeled(const Iteration& a, const Iteration& b) {
  return a.items == b.items && a.payload_bytes == b.payload_bytes &&
         a.modeled_completion_ns == b.modeled_completion_ns &&
         a.modeled_items_per_s == b.modeled_items_per_s &&
         a.latency_p50_ns == b.latency_p50_ns &&
         a.latency_p95_ns == b.latency_p95_ns &&
         a.latency_p99_ns == b.latency_p99_ns &&
         a.latency_samples == b.latency_samples &&
         a.registered_max_node_bytes == b.registered_max_node_bytes;
}

double HostItemsPerS(const Iteration& it) {
  return it.run_phase_s > 0 ? static_cast<double>(it.items) / it.run_phase_s
                            : 0;
}

/// A "<field>: <n> kB" line of /proc/self/status, in KiB; -1 if missing.
double StatusKib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  double kib = -1;
  char line[256];
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kib = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

/// Resets the process's peak RSS (VmHWM) to its current RSS.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Span-derived values of one traced iteration. `first` is the index of
/// the iteration's first span.
MetricValues AnalyzeSpans(const Tracer& tracer, size_t first, int64_t from,
                          int64_t to, const Iteration& it,
                          std::map<std::string, Tracer::LayerTime>* table) {
  MetricValues v;
  const std::map<std::string, Tracer::LayerTime> iter =
      tracer.SelfTimes(from, to, nullptr);
  // The engine-run window: the iteration's exec.run span.
  int64_t run_from = from, run_to = to;
  for (size_t i = first; i < tracer.size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (std::string(s.name) == "exec.run") {
      run_from = s.start_ns;
      run_to = s.end_ns;
    }
  }
  double unattributed_run = 0;
  *table = tracer.SelfTimes(run_from, run_to, &unattributed_run);
  const double run_wall = static_cast<double>(run_to - run_from) * 1e-9;
  v["exec.unattributed_share"] = run_wall > 0 ? unattributed_run / run_wall : 0;
  v["self.unattributed_s"] = unattributed_run;
  // Self times over the whole iteration: shuffle sets up before
  // Engine::Run, the pipeline inside it.
  double setup = 0;
  for (const auto& [name, lt] : iter) {
    if (SetupSpan(name)) setup += lt.self_s;
  }
  auto self = [&](const char* name) {
    auto it = iter.find(name);
    return it == iter.end() ? 0.0 : it->second.self_s;
  };
  v["self.setup_s"] = setup;
  v["self.endpoint.push_s"] = self("endpoint.push");
  v["self.endpoint.consume_s"] = self("endpoint.consume");
  v["self.endpoint.close_s"] = self("endpoint.close");
  v["self.graph.sink_fn_s"] = self("graph.sink_fn");
  v["self.bench_s"] = self("bench.verify");
  auto per = [](double seconds, uint64_t count) {
    return count == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(count);
  };
  v["endpoint.push_host_ns_per_tuple"] =
      per(self("endpoint.push"), it.pushed_tuples);
  v["endpoint.consume_host_ns_per_segment"] =
      per(self("endpoint.consume"), it.consumed_segments);
  v["pipeline.sink_host_ns_per_row"] = per(self("graph.sink_fn"), it.sink_rows);
  v["trace.spans"] = static_cast<double>(tracer.size() - first);
  return v;
}

void PrintLayerTable(const std::string& workload,
                     const std::map<std::string, Tracer::LayerTime>& table,
                     const MetricValues& m, std::FILE* log) {
  const double run = m.at("exec.run_wall_s");
  std::fprintf(log, "\nper-layer host self time inside Engine::Run, workload "
               "%s (last traced iteration; share of its exec.run wall; "
               "median exec.run wall %.4f s)\n",
               workload.c_str(), run);
  const auto run_span = table.find("exec.run");
  const double traced_run =
      run_span == table.end() ? 0.0 : run_span->second.wall_s;
  std::fprintf(log, "  %-22s %10s %12s %12s %8s\n", "span", "calls",
               "wall_s", "self_s", "share");
  double covered = 0;
  for (const auto& [name, lt] : table) {
    covered += lt.self_s;
    std::fprintf(log, "  %-22s %10" PRIu64 " %12.6f %12.6f %8.4f\n",
                 name.c_str(), lt.count, lt.wall_s, lt.self_s,
                 traced_run > 0 ? lt.self_s / traced_run : 0);
  }
  const double unattributed = traced_run - covered;
  std::fprintf(log, "  %-22s %10s %12s %12.6f %8.4f\n", "(unattributed)", "",
               "", unattributed,
               traced_run > 0 ? unattributed / traced_run : 0);
  std::fprintf(log,
               "set-up self time (median, incl. spans before Engine::Run): "
               "%.6f s; exec.unattributed_share (median) %.4f\n",
               m.at("self.setup_s"), m.at("exec.unattributed_share"));
  std::fprintf(log,
               "modeled per call: push %.3f ns/tuple, consume wait %.1f "
               "ns/segment, %.1f tuples/segment, close %.1f ns\n",
               m.at("endpoint.push_modeled_ns_per_tuple"),
               m.at("endpoint.consume_modeled_wait_ns_per_segment"),
               m.at("endpoint.tuples_per_segment"),
               m.at("endpoint.close_modeled_ns"));
  if (m.at("graph.ingest.tuples_out") > 0) {
    std::fprintf(log, "  %-12s %12s %12s %16s\n", "vertex", "tuples_in",
                 "tuples_out", "modeled_end_ms");
    for (const char* v : {"ingest", "window", "aggregate", "subscribers"}) {
      const std::string p = std::string("graph.") + v;
      std::fprintf(log, "  %-12s %12.0f %12.0f %16.6f\n", v,
                   m.at(p + ".tuples_in"), m.at(p + ".tuples_out"),
                   m.at(p + ".modeled_end_ms"));
    }
  }
  std::fprintf(log, "tracing overhead: untraced host_items_per_s / traced - 1 "
               "= %.4f\n", m.at("trace.host_overhead"));
}

}  // namespace

std::string TraceFile(const std::string& workload) {
  return ".bench_build/perfbench/trace_" + workload + ".json";
}

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const WorkloadEntry& e : Entries()) n.push_back(e.name);
    return n;
  }();
  return names;
}

RunReport RunBenchmark(const RunOptions& o, std::FILE* log) {
  RunReport report;
  report.tier = o.trace ? Tier::kPerLayer : Tier::kEndToEnd;
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& e : Entries()) {
    if (e.name == o.workload) entry = &e;
  }
  if (entry == nullptr) {
    std::fprintf(log, "unknown workload %s\n", o.workload.c_str());
    return report;
  }
  const WorkloadParams params{.seed = o.seed};
  std::fprintf(log, "workload %s seed %" PRIu64 " engine_workers %u trace %d\n",
               o.workload.c_str(), o.seed, kEngineWorkers, o.trace ? 1 : 0);

  CheckResult problems;
  // Different seeds must give different inputs.
  WorkloadParams next = params;
  next.seed = o.seed + 1;
  if (entry->fingerprint(params) == entry->fingerprint(next)) {
    problems.Fail(1, "seeds " + std::to_string(o.seed) + " and " +
                         std::to_string(o.seed + 1) + " give the same input");
  }

  const std::unique_ptr<Workload> workload = entry->make(params);
  Tracer tracer;
  std::vector<Iteration> plain, traced;
  std::map<std::string, Tracer::LayerTime> table;
  const auto deadline =
      WallClock::now() + std::chrono::duration<double>(o.seconds);
  for (int i = 0;; ++i) {
    const bool with_trace = o.trace && i % 2 == 1;
    const size_t first = tracer.size();
    const int64_t from = tracer.Now();
    tracer.set_run_id(static_cast<uint32_t>(i));
    // Inputs and references are resident before the first iteration, so
    // the growth is the emulator's own memory (plus per-iteration results).
    malloc_trim(0);
    const double rss0 = StatusKib("VmRSS");
    if (!ResetPeakRss() || rss0 < 0) {
      problems.Fail(1, "cannot read or reset the peak RSS in /proc/self");
    }
    Iteration it = workload->Run(with_trace ? &tracer : nullptr);
    it.rss_growth_mib = (StatusKib("VmHWM") - rss0) / 1024.0;
    const int64_t to = tracer.Now();
    std::fprintf(log,
                 "  iteration %d%s: setup %.6f s, run %.6f s, %.6g items/s, "
                 "cpu %.6f s, ctx %g, rss growth %.3f MiB\n",
                 i, with_trace ? " (traced)" : "", it.setup_s, it.run_phase_s,
                 HostItemsPerS(it), it.layer["exec.cpu_s"],
                 it.layer["exec.ctx_switches"], it.rss_growth_mib);
    report.attempted += it.attempted;
    problems.Merge(it.check);
    const Iteration& ref = plain.empty() ? it : plain.front();
    if (!SameModeled(ref, it)) {
      problems.Fail(1, "iteration " + std::to_string(i) +
                           ": modeled values differ from iteration 0 with "
                           "the same seed");
    }
    if (with_trace) {
      std::map<std::string, Tracer::LayerTime> t;
      MetricValues v = AnalyzeSpans(tracer, first, from, to, it, &t);
      it.layer.insert(v.begin(), v.end());
      table = t;
      if (traced.empty()) {
        const std::string path = TraceFile(o.workload);
        if (!tracer.WriteChromeJson(path, first, kMaxTraceEvents)) {
          std::fprintf(log, "could not write %s\n", path.c_str());
        }
      }
      tracer.Truncate(first);
      traced.push_back(std::move(it));
    } else {
      plain.push_back(std::move(it));
    }
    const int done = i + 1;
    if (WallClock::now() >= deadline && done >= kMinIterations) {
      break;
    }
  }
  report.failed = problems.failures;
  for (const std::string& r : problems.reasons) {
    std::fprintf(log, "FAILED: %s\n", r.c_str());
  }
  report.correct = problems.ok();

  const Iteration& m = plain.front();
  std::vector<double> host, setup, rss;
  for (const Iteration& it : plain) {
    host.push_back(HostItemsPerS(it));
    setup.push_back(it.setup_s);
    rss.push_back(it.rss_growth_mib);
  }
  const double gib = static_cast<double>(m.payload_bytes) * 1e9 /
                     static_cast<double>(std::max<int64_t>(
                         m.modeled_completion_ns, 1)) /
                     (1024.0 * 1024.0 * 1024.0);
  const double host_median = Median(host);
  std::fprintf(log,
               "iterations %zu untraced, %zu traced; items %" PRIu64
               " per iteration; failed_ratio %.6g (%" PRIu64 " of %" PRIu64
               ")\n",
               plain.size(), traced.size(), m.items,
               report.attempted > 0
                   ? static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted)
                   : 0.0,
               report.failed, report.attempted);
  std::fprintf(log,
               "modeled latency p50 %.3f us, p95 %.3f us, p99 %.3f us "
               "(sample_count %" PRIu64 "; p99 0 = not observable)\n",
               m.latency_p50_ns / 1e3, m.latency_p95_ns / 1e3,
               m.latency_p99_ns / 1e3, m.latency_samples);

  if (!o.trace) {
    MetricValues& e = report.metrics;
    e["modeled_gib_s"] = gib;
    e["modeled_items_per_s"] = m.modeled_items_per_s;
    e["host_items_per_s"] = host_median;
    e["setup_s"] = Median(setup);
    e["peak_rss_mib"] = Median(rss);
    e["registered_mib_max_node"] =
        static_cast<double>(m.registered_max_node_bytes) / (1024.0 * 1024.0);
    return report;
  }

  // Per-layer: untraced iterations for everything the tracer does not
  // measure, traced iterations for the span-derived values.
  MetricValues& l = report.metrics;
  std::set<std::string> names;
  for (const MetricDef& d : Catalog()) {
    if (d.tier == Tier::kPerLayer) names.insert(d.name);
  }
  for (const std::string& name : names) {
    const std::vector<Iteration>& from = SpanDerived(name) ? traced : plain;
    std::vector<double> values;
    for (const Iteration& it : from) {
      auto f = it.layer.find(name);
      values.push_back(f == it.layer.end() ? 0.0 : f->second);
    }
    l[name] = Median(values);
  }
  l["modeled_latency_p50_us"] = static_cast<double>(m.latency_p50_ns) / 1e3;
  l["modeled_latency_p95_us"] = static_cast<double>(m.latency_p95_ns) / 1e3;
  l["modeled_latency_p99_us"] = static_cast<double>(m.latency_p99_ns) / 1e3;
  l["sample_count"] = static_cast<double>(m.latency_samples);
  std::vector<double> traced_host;
  for (const Iteration& it : traced) traced_host.push_back(HostItemsPerS(it));
  const double traced_median = Median(traced_host);
  l["trace.host_overhead"] =
      traced_median > 0 ? host_median / traced_median - 1 : 0;
  PrintLayerTable(o.workload, table, l, log);
  return report;
}

std::string ResultJson(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool comma = false;
  for (const MetricDef& d : Catalog()) {
    if (d.tier != report.tier) continue;
    auto it = report.metrics.find(d.name);
    double v = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += comma ? ", " : "";
    out += "\"" + d.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           d.unit + "\"}";
    comma = true;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
