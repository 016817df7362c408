#include "cc/checks.h"

#include "common/hash.h"

namespace perfbench {

void CheckResult::Fail(uint64_t count, std::string reason) {
  failures += count;
  reasons.push_back(std::move(reason));
}

void CheckResult::Merge(const CheckResult& other) {
  failures += other.failures;
  reasons.insert(reasons.end(), other.reasons.begin(), other.reasons.end());
}

void TargetDigest::Add(uint64_t key) {
  count += 1;
  checksum += dfi::HashU64(key ^ 0x5bd1e9955bd1e995ull);
}

CheckResult CheckShuffle(const std::vector<TargetDigest>& expected,
                         const std::vector<TargetDigest>& observed) {
  CheckResult r;
  if (expected.size() != observed.size()) {
    r.Fail(1, "target count differs from the flow spec");
    return r;
  }
  for (size_t t = 0; t < expected.size(); ++t) {
    const TargetDigest& e = expected[t];
    const TargetDigest& o = observed[t];
    if (e.count != o.count) {
      const uint64_t diff = e.count > o.count ? e.count - o.count
                                              : o.count - e.count;
      r.Fail(diff, "target " + std::to_string(t) + ": " +
                       std::to_string(o.count) + " tuples, expected " +
                       std::to_string(e.count));
    } else if (e.checksum != o.checksum) {
      r.Fail(1, "target " + std::to_string(t) + ": key checksum differs");
    }
  }
  return r;
}

uint64_t RowHash(uint64_t group, uint64_t count, uint64_t sum) {
  return dfi::HashU64(group * 0x9E3779B97F4A7C15ull ^ (count << 32) ^ sum);
}

uint64_t Fingerprint(const WindowMap& windows) {
  uint64_t fp = 0;
  for (const auto& [group, cs] : windows) {
    fp += RowHash(group, cs.first, cs.second);
  }
  return fp;
}

CheckResult CheckPipeline(const WindowMap& reference,
                          const PipelineObservation& observed) {
  CheckResult r;
  uint64_t wrong = 0;
  for (const auto& [group, cs] : reference) {
    auto it = observed.windows.find(group);
    if (it == observed.windows.end() || it->second != cs) ++wrong;
  }
  for (const auto& entry : observed.windows) {
    if (reference.count(entry.first) == 0) ++wrong;
  }
  if (wrong != 0) {
    r.Fail(wrong, std::to_string(wrong) +
                      " window groups differ from the reference fold");
  }
  const uint64_t want_fp = Fingerprint(reference);
  for (size_t s = 0; s < observed.fingerprints.size(); ++s) {
    const uint64_t rows = s < observed.rows.size() ? observed.rows[s] : 0;
    if (rows != reference.size()) {
      const uint64_t diff = rows > reference.size() ? rows - reference.size()
                                                    : reference.size() - rows;
      r.Fail(diff, "subscriber " + std::to_string(s) + ": " +
                       std::to_string(rows) + " rows, expected " +
                       std::to_string(reference.size()));
    } else if (observed.fingerprints[s] != want_fp) {
      r.Fail(1, "subscriber " + std::to_string(s) +
                    ": row fingerprint differs from the reference");
    }
  }
  if (observed.fingerprints.empty()) r.Fail(1, "no subscriber reported");
  return r;
}

CheckResult CheckConsensus(bool status_ok, uint64_t expected_requests,
                           uint64_t completed) {
  CheckResult r;
  if (!status_ok) r.Fail(1, "consensus run returned a non-OK status");
  if (completed != expected_requests) {
    const uint64_t diff = completed > expected_requests
                              ? completed - expected_requests
                              : expected_requests - completed;
    r.Fail(diff, std::to_string(completed) + " requests completed, expected " +
                     std::to_string(expected_requests));
  }
  return r;
}

}  // namespace perfbench
