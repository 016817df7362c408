#ifndef DFI_CORE_DFI_RUNTIME_H_
#define DFI_CORE_DFI_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/shuffle_flow.h"
#include "net/fabric.h"
#include "registry/flow_state.h"
#include "registry/registry_client.h"
#include "registry/registry_service.h"
#include "rdma/rdma_env.h"

namespace dfi {

struct ReplicateFlowSpec;
struct CombinerFlowSpec;
class ReplicateSource;
class ReplicateTarget;
class CombinerSource;
class CombinerTarget;

/// Entry point of the DFI library for one emulated cluster: binds the
/// network fabric, the RDMA environment and the central flow registry, and
/// exposes flow initialization and endpoint creation.
///
/// Typical lifecycle (paper Figure 1):
///
///   DfiRuntime dfi(&fabric);
///   DFI_CHECK_OK(dfi.InitShuffleFlow({
///       .name = "shuffle", .sources = ..., .targets = ...,
///       .schema = Schema{{"key", DataType::kInt64},
///                        {"value", DataType::kInt64}},
///       .shuffle_key_index = 0}));
///   auto source = dfi.CreateShuffleSource("shuffle", 0);   // source thread
///   auto target = dfi.CreateShuffleTarget("shuffle", 0);   // target thread
///   source->Push(...); source->Close();
///   while (target->Consume(&tuple) != ConsumeResult::kFlowEnd) { ... }
class DfiRuntime {
 public:
  explicit DfiRuntime(net::Fabric* fabric);
  ~DfiRuntime();

  DfiRuntime(const DfiRuntime&) = delete;
  DfiRuntime& operator=(const DfiRuntime&) = delete;

  net::Fabric& fabric() { return *fabric_; }
  rdma::RdmaEnv& rdma() { return *rdma_; }
  /// The control plane behind this runtime. The default deployment is a
  /// single-shard loopback service (no fabric coupling, zero virtual RPC
  /// cost — flow metadata exchange is not part of the data-path model);
  /// fabric-placed, replicated deployments construct their own
  /// reg::RegistryService/Client pair (see bench/registry_churn).
  reg::RegistryService& registry_service() { return registry_service_; }
  /// The runtime's own control-plane client (driver-thread identity; cache
  /// disabled — a loopback epoch never changes, so cached entries could
  /// not be fenced after RemoveFlow).
  reg::RegistryClient& registry_client() { return registry_client_; }
  const net::SimConfig& config() const { return fabric_->config(); }

  // ---- Shuffle flows -----------------------------------------------------
  /// Initializes a shuffle flow and publishes it in the registry
  /// (the paper's DFI_Flow_init).
  Status InitShuffleFlow(ShuffleFlowSpec spec);
  StatusOr<std::unique_ptr<ShuffleSource>> CreateShuffleSource(
      const std::string& flow_name, uint32_t source_index);
  StatusOr<std::unique_ptr<ShuffleTarget>> CreateShuffleTarget(
      const std::string& flow_name, uint32_t target_index);

  // ---- Replicate flows ---------------------------------------------------
  Status InitReplicateFlow(ReplicateFlowSpec spec);
  StatusOr<std::unique_ptr<ReplicateSource>> CreateReplicateSource(
      const std::string& flow_name, uint32_t source_index);
  StatusOr<std::unique_ptr<ReplicateTarget>> CreateReplicateTarget(
      const std::string& flow_name, uint32_t target_index);

  // ---- Combiner flows ----------------------------------------------------
  Status InitCombinerFlow(CombinerFlowSpec spec);
  StatusOr<std::unique_ptr<CombinerSource>> CreateCombinerSource(
      const std::string& flow_name, uint32_t source_index);
  StatusOr<std::unique_ptr<CombinerTarget>> CreateCombinerTarget(
      const std::string& flow_name, uint32_t target_index);

  /// Removes a flow from the registry (its state lives on until the last
  /// endpoint handle drops).
  Status RemoveFlow(const std::string& flow_name);

  /// Batched RemoveFlow: one control-plane round trip per owning shard
  /// instead of one per flow. Returns the first per-flow error (all
  /// removals are still attempted).
  Status RemoveFlows(const std::vector<std::string>& flow_names);

  /// Tears a flow down by name: every participant's next (or currently
  /// blocked) operation fails with `cause`. NotFound if no such flow.
  Status AbortFlow(const std::string& flow_name, const Status& cause);

  /// Total registered (flow-buffer) bytes currently on `node` — the memory
  /// consumption metric of paper section 6.1.4.
  uint64_t RegisteredBytesOnNode(net::NodeId node) const;

 private:
  template <typename StateT>
  StatusOr<std::shared_ptr<StateT>> LookupState(
      const std::string& flow_name) const;

  net::Fabric* const fabric_;
  std::unique_ptr<rdma::RdmaEnv> rdma_;
  reg::RegistryService registry_service_;
  // mutable: lookups from const paths go through the client stub (stats).
  mutable reg::RegistryClient registry_client_;
};

}  // namespace dfi

#endif  // DFI_CORE_DFI_RUNTIME_H_
