// Chaos experiment: Multi-Paxos leader failover under a scripted
// fail-stop crash (robustness PR — not a paper figure). The fabric's
// FaultPlan kills the term-1 leader's node mid-run and RunMultiPaxos turns
// into a failover run; every survivor unwinds through the
// bounded-blocking machinery (poisoned channels, kPeerFailed fault-plan
// probes, block deadlines) and fails over to a pre-published term-2 flow
// set. Reported: requests completed across both terms, how many in-flight
// requests the clients resubmitted, and the virtual recovery time from the
// crash to the first / last client's first term-2 reply. Each run is the
// root task of a 1-worker exec::Engine, so the rows are byte-identical from
// run to run at a given --seed.

#include "apps/consensus/consensus.h"
#include "bench/bench_common.h"
#include "common/exec/engine.h"

namespace dfi::bench {
namespace {

using consensus::ConsensusConfig;
using consensus::ConsensusResult;

void Run() {
  PrintSection(
      "Chaos: Multi-Paxos leader failover (5 replicas, 6 clients, "
      "fail-stop leader crash, 50 ms block deadline)");
  TablePrinter table({"crash at", "requests/s", "completed", "resubmitted",
                      "recovery (first)", "recovery (all)"});
  for (SimTime crash_at : {500'000, 2'000'000, 8'000'000}) {
    ConsensusConfig cfg;
    cfg.requests_per_client = 1500;
    cfg.client_window = 1;
    cfg.seed = BenchSeed();
    net::Fabric fabric;
    auto addrs = MakeCluster(&fabric, cfg.num_replicas + cfg.num_client_nodes);
    // Fail-stop the term-1 leader's node (replica 0) at `crash_at`.
    fabric.fault_plan().CrashNode(*fabric.ResolveAddress(addrs[0]), crash_at);
    DfiRuntime dfi(&fabric);
    StatusOr<ConsensusResult> r = Status::Internal("not run");
    exec::Engine engine({.workers = 1});
    engine.Spawn(0, "chaos-root",
                 [&] { r = consensus::RunMultiPaxos(&dfi, addrs, cfg); });
    engine.Run();
    DFI_CHECK(r.ok()) << r.status();
    DFI_CHECK_EQ(r->completed, static_cast<uint64_t>(cfg.num_clients) *
                                   cfg.requests_per_client);
    table.AddRow({Micros(crash_at), Num(r->throughput_rps),
                  Num(static_cast<double>(r->completed)),
                  Num(static_cast<double>(r->resubmitted)),
                  Micros(r->recovery_first_reply_ns),
                  Micros(r->recovery_all_clients_ns)});
    std::printf("fault trace (crash at %s): %s\n", Micros(crash_at).c_str(),
                fabric.fault_plan().TraceString().c_str());
  }
  table.Print();
  std::printf(
      "(expected: every request completes despite the crash — clients\n"
      " resubmit their in-flight request on the failover flows; recovery\n"
      " is dominated by crash detection plus the new leader's log replay,\n"
      " far below the worst-case block deadline.)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
