// Replicated key-value store with consensus over DFI flows (paper section
// 4.3.2 / Figure 3): runs the same YCSB-style workload through Multi-Paxos
// and NOPaxos and prints throughput/latency.
//
//   $ ./build/examples/replicated_kv

#include <cstdio>

#include "apps/consensus/consensus.h"
#include "common/exec/engine.h"
#include "common/units.h"
#include "core/dfi.h"

using namespace dfi;  // NOLINT: example brevity

namespace {

template <typename Fn>
void RunOne(const char* name, Fn run, const consensus::ConsensusConfig& cfg) {
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id :
       fabric.AddNodes(cfg.num_replicas + cfg.num_client_nodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);
  // The consensus actors are fibers: run the app as the root task of a
  // 1-worker engine.
  StatusOr<consensus::ConsensusResult> result = Status::Internal("not run");
  exec::Engine engine({.workers = 1});
  engine.Spawn(0, "replicated-kv", [&] { result = run(&dfi, addrs, cfg); });
  engine.Run();
  DFI_CHECK(result.ok()) << result.status();
  std::printf("%-12s %8llu requests  %10.0f req/s  median %-9s p95 %s\n",
              name, static_cast<unsigned long long>(result->completed),
              result->throughput_rps,
              FormatDuration(result->median_latency_ns).c_str(),
              FormatDuration(result->p95_latency_ns).c_str());
}

}  // namespace

int main() {
  consensus::ConsensusConfig cfg;
  cfg.requests_per_client = 1000;
  cfg.think_time_ns = 5000;  // moderate load

  std::printf(
      "replicated KV store: %u replicas, %u clients, 64 B requests, "
      "YCSB %d%%/%d%% read/write\n",
      cfg.num_replicas, cfg.num_clients,
      static_cast<int>((1 - cfg.write_fraction) * 100),
      static_cast<int>(cfg.write_fraction * 100));

  // Multi-Paxos: 4 flows (submit, propose via ordered-free multicast,
  // vote, reply) — the message flow of paper Figure 3.
  RunOne("Multi-Paxos", consensus::RunMultiPaxos, cfg);
  // NOPaxos: clients multicast through the globally-ordered replicate flow
  // (the OUM primitive with the tuple sequencer); followers ack straight
  // to the clients.
  RunOne("NOPaxos", consensus::RunNoPaxos, cfg);
  return 0;
}
