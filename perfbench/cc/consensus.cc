// Workload `consensus`: consensus::RunMultiPaxos inside the engine task —
// 5 replicas, 6 closed-loop clients on 3 nodes, one outstanding request per
// client, no think time, 64 B YCSB 95/5 requests. The flows are created
// inside the app, so the benchmark sees the app call as a whole and reads
// the fabric and registry counters around it.

#include "apps/consensus/consensus.h"
#include "bench_util/workload.h"
#include "cc/workloads.h"
#include "common/exec/engine.h"
#include "common/hash.h"
#include "core/dfi.h"

namespace perfbench {
namespace {

constexpr uint32_t kReplicas = 5;
constexpr uint32_t kClients = 6;
constexpr uint32_t kClientNodes = 3;
constexpr uint32_t kRequestsPerClient = 8000;
constexpr uint64_t kRequestBytes = 64;

dfi::consensus::ConsensusConfig Config(const WorkloadParams& p) {
  dfi::consensus::ConsensusConfig cfg;
  cfg.num_replicas = kReplicas;
  cfg.num_clients = kClients;
  cfg.num_client_nodes = kClientNodes;
  cfg.requests_per_client = kRequestsPerClient;
  cfg.client_window = 1;
  cfg.think_time_ns = 0;
  cfg.write_fraction = 0.05;
  cfg.seed = dfi::HashU64(p.seed * 0x9E3779B97F4A7C15ull);
  return cfg;
}

class ConsensusWorkload : public Workload {
 public:
  explicit ConsensusWorkload(const WorkloadParams& p) : cfg_(Config(p)) {}
  Iteration Run(Tracer* tracer) override;

 private:
  // The app's clients generate their YCSB requests from cfg_.seed.
  const dfi::consensus::ConsensusConfig cfg_;
};

Iteration ConsensusWorkload::Run(Tracer* tracer) {
  const dfi::consensus::ConsensusConfig& cfg = cfg_;
  Iteration it;
  it.attempted = static_cast<uint64_t>(cfg.num_clients) *
                 cfg.requests_per_client;
  const auto t0 = WallClock::now();
  dfi::net::Fabric fabric;
  std::vector<std::string> addrs;
  for (dfi::net::NodeId id : fabric.AddNodes(kReplicas + kClientNodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  dfi::DfiRuntime dfi(&fabric);

  WallClock::time_point first_push;
  dfi::Status status;
  dfi::consensus::ConsensusResult result;
  dfi::exec::Engine engine({.workers = kEngineWorkers, .lookahead_ns = 1000});
  engine.Spawn(0, "consensus-root", [&] {
    first_push = WallClock::now();
    ScopedSpan span(tracer, "consensus.run", 0, Tracer::Kind::kWait);
    auto r = dfi::consensus::RunMultiPaxos(&dfi, addrs, cfg);
    status = r.status();
    if (r.ok()) result = *r;
  });
  const HostUsage u0 = HostUsage::Now();
  const auto r0 = WallClock::now();
  {
    ScopedSpan span(tracer, "exec.run", 0, Tracer::Kind::kWait);
    engine.Run();
  }
  const auto r1 = WallClock::now();
  const HostUsage u1 = HostUsage::Now();
  MetricValues& l = it.layer;
  RecordExec(u0, u1, std::chrono::duration<double>(r1 - r0).count(), &l);
  it.setup_s = std::chrono::duration<double>(first_push - t0).count();
  it.run_phase_s = std::chrono::duration<double>(r1 - first_push).count();

  it.items = result.completed;
  it.payload_bytes = it.items * kRequestBytes;
  it.modeled_items_per_s = result.throughput_rps;
  it.modeled_completion_ns =
      result.throughput_rps > 0
          ? static_cast<int64_t>(static_cast<double>(result.completed) * 1e9 /
                                 result.throughput_rps)
          : 0;
  it.latency_p50_ns = result.median_latency_ns;
  it.latency_p95_ns = result.p95_latency_ns;
  it.latency_samples = result.completed;
  RecordRegistered(fabric, &it);
  it.check = CheckConsensus(status.ok(), it.attempted, result.completed);
  if (!status.ok()) it.check.reasons.push_back(status.ToString());

  RecordNet(fabric, it.payload_bytes, it.modeled_completion_ns, &l);
  const dfi::reg::RegistryClientStats rs = dfi.registry_client().stats();
  l["registry.rpcs"] = static_cast<double>(rs.rpcs);
  l["registry.retries"] = static_cast<double>(rs.retries);
  return it;
}

}  // namespace

std::unique_ptr<Workload> MakeConsensus(const WorkloadParams& p) {
  return std::make_unique<ConsensusWorkload>(p);
}

uint64_t ConsensusInputFingerprint(const WorkloadParams& p) {
  const dfi::consensus::ConsensusConfig cfg = Config(p);
  uint64_t fp = 0;
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    // The same generator call the app's clients make.
    for (const auto& r : dfi::bench::GenerateYcsbRequests(
             64, cfg.key_space, cfg.write_fraction, 0.0, cfg.seed + c)) {
      fp += dfi::HashU64(r.key * 2 + (r.is_write ? 1 : 0)) * (c + 1);
    }
  }
  return fp;
}

}  // namespace perfbench
