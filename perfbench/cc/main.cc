// The repository benchmark. Usage:
//
//   dfi_perfbench --workload shuffle|pipeline|consensus --seed <n>
//                 --seconds <s> --trace 0|1
//   dfi_perfbench --list-metrics
//
// Prints readable tables, then one JSON line as the last line of standard
// output: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. See
// README.md.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cc/runner.h"
#include "cc/metrics.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <shuffle|pipeline|consensus> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc's adaptive one makes peak RSS depend on
  // the allocation history of earlier iterations.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const perfbench::MetricDef& m : perfbench::Catalog()) {
        std::printf("%s %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                    perfbench::BetterName(m.better),
                    m.tier == perfbench::Tier::kEndToEnd ? "end_to_end"
                                                         : "per_layer");
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage(argv[0]);
      o.trace = value == "1";
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return Usage(argv[0]);
  }
  bool known = false;
  for (const std::string& w : perfbench::Workloads()) known |= w == o.workload;
  if (!have_workload || !known || o.seconds < 0) {
    return Usage(argv[0]);
  }
  const perfbench::RunReport report = perfbench::RunBenchmark(o, stdout);
  std::printf("%s\n", perfbench::ResultJson(report).c_str());
  return 0;
}
