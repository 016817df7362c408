#ifndef DFI_REGISTRY_FLOW_STATE_H_
#define DFI_REGISTRY_FLOW_STATE_H_

#include "common/status.h"

namespace dfi {

/// Opaque base for per-flow state published in the registry. The core
/// library derives its flow-state objects from this.
///
/// In a distributed deployment the published metadata would be QP numbers,
/// rkeys and buffer addresses exchanged over the wire; in this in-process
/// emulation it is the flow-state object itself (the paper's "central
/// registry, e.g. a master node": flow metadata is published on
/// initialization and retrieved by sources/targets before use).
class FlowStateBase {
 public:
  virtual ~FlowStateBase() = default;

  /// Tears the flow down (fault handling): implementations poison their
  /// channels so every participant's next operation fails with `cause`.
  /// Default is a no-op for states with nothing to tear down.
  virtual void Abort(const Status& cause) { (void)cause; }
};

}  // namespace dfi

#endif  // DFI_REGISTRY_FLOW_STATE_H_
