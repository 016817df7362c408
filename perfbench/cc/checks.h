#ifndef PERFBENCH_CC_CHECKS_H_
#define PERFBENCH_CC_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Outcome of one reference check: the number of failed items it found and
/// a readable reason per failure kind. Counted into `failed`.
struct CheckResult {
  uint64_t failures = 0;
  std::vector<std::string> reasons;

  bool ok() const { return failures == 0; }
  void Fail(uint64_t count, std::string reason);
  void Merge(const CheckResult& other);
};

/// Per-target content of a shuffle: tuple count and a commutative key
/// checksum (sum of a hash per key). Insensitive to delivery order, so the
/// generator side can compute the same values.
struct TargetDigest {
  uint64_t count = 0;
  uint64_t checksum = 0;

  void Add(uint64_t key);
  bool operator==(const TargetDigest&) const = default;
};

/// Shuffle: every target must hold exactly the generator-side count and
/// checksum. A lost or duplicated tuple counts one failure per tuple.
CheckResult CheckShuffle(const std::vector<TargetDigest>& expected,
                         const std::vector<TargetDigest>& observed);

/// Window content: window key -> (COUNT, SUM(val)).
using WindowMap = std::map<uint64_t, std::pair<uint64_t, uint64_t>>;

/// Commutative hash of one aggregate row, the subscriber fingerprint unit.
uint64_t RowHash(uint64_t group, uint64_t count, uint64_t sum);
/// Fingerprint of a whole window map (sum of RowHash).
uint64_t Fingerprint(const WindowMap& windows);

/// What the pipeline's subscribers observed.
struct PipelineObservation {
  WindowMap windows;                  // as seen by subscriber 0
  std::vector<uint64_t> fingerprints; // per subscriber
  std::vector<uint64_t> rows;         // rows delivered per subscriber
};

/// Pipeline: subscriber 0's window map must equal the reference COUNT/SUM
/// fold, and every subscriber must have received exactly the reference
/// rows (same count, same fingerprint).
CheckResult CheckPipeline(const WindowMap& reference,
                          const PipelineObservation& observed);

/// Consensus: every request of every client completed with an OK status.
CheckResult CheckConsensus(bool status_ok, uint64_t expected_requests,
                           uint64_t completed);

}  // namespace perfbench

#endif  // PERFBENCH_CC_CHECKS_H_
