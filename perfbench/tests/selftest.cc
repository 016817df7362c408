// Tests of the benchmark itself: metric naming, the reference checkers and
// the span self-time analysis. Run with `python3 perfbench/run.py
// --selftest` (builds, then runs this binary).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "cc/checks.h"
#include "cc/runner.h"
#include "cc/metrics.h"
#include "cc/trace.h"

namespace perfbench {
namespace {

TEST(MetricsTest, CatalogNamesUnitsAndDirectionsAreValid) {
  std::set<std::string> seen;
  int end_to_end = 0;
  for (const MetricDef& m : Catalog()) {
    EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
    EXPECT_TRUE(ValidUnit(m.unit)) << m.name << " unit " << m.unit;
    EXPECT_TRUE(m.better == Better::kHigher || m.better == Better::kLower);
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    end_to_end += m.tier == Tier::kEndToEnd ? 1 : 0;
  }
  EXPECT_NE(FindMetric("setup_s"), nullptr);
  EXPECT_EQ(FindMetric("setup_s")->unit, "s");
  EXPECT_EQ(FindMetric("setup_s")->better, Better::kLower);
  EXPECT_GE(end_to_end, 1);
  EXPECT_LE(end_to_end, 16);
  EXPECT_LE(static_cast<int>(Catalog().size()) - end_to_end, 128);
}

TEST(MetricsTest, SampleRunsGiveTheQuantilesOfTheExpandedSamples) {
  Samples runs;
  std::vector<long long> flat;
  for (long long v : {7, 7, 3, 9, 3, 3, 1, 7}) {
    const uint64_t w = static_cast<uint64_t>(v % 4 + 1);
    runs.Add(v, w);
    flat.insert(flat.end(), w, v);
  }
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(runs.count(), flat.size());
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * static_cast<double>(flat.size()))),
        1, flat.size());
    EXPECT_EQ(runs.Quantile(q), flat[rank - 1]) << q;
  }
  EXPECT_EQ(Samples().Quantile(0.5), 0);
}

TEST(MetricsTest, NameValidationRejectsBadNames) {
  EXPECT_TRUE(ValidMetricName("graph.window.modeled_end_ms"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidUnit("GiB/s"));
  EXPECT_FALSE(ValidUnit("micro seconds"));
}

// Runs every workload at benchmark size for the minimum number of
// iterations, untraced and traced, and checks that every emitted metric is
// a catalog metric of the run's tier, with a finite value, and that the
// run's own checks pass.
class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, EmitsEveryCatalogMetricAndPassesChecks) {
  for (bool trace : {false, true}) {
    RunOptions o;
    o.workload = GetParam();
    o.seed = 5;
    o.seconds = 0;
    o.trace = trace;
    std::FILE* sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    const RunReport r = RunBenchmark(o, sink);
    std::fclose(sink);
    EXPECT_TRUE(r.correct) << GetParam() << " trace " << trace;
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.attempted, 0u);
    const Tier tier = trace ? Tier::kPerLayer : Tier::kEndToEnd;
    std::set<std::string> want;
    for (const MetricDef& m : Catalog()) {
      if (m.tier == tier) want.insert(m.name);
    }
    std::set<std::string> got;
    for (const auto& [name, value] : r.metrics) {
      const MetricDef* def = FindMetric(name);
      ASSERT_NE(def, nullptr) << "uncatalogued metric " << name;
      EXPECT_EQ(def->tier, tier) << name;
      EXPECT_TRUE(ValidMetricName(name)) << name;
      EXPECT_TRUE(std::isfinite(value)) << name;
      got.insert(name);
    }
    EXPECT_EQ(got, want);
    if (!trace) {
      for (const auto& [name, value] : r.metrics) {
        EXPECT_GT(value, 0) << GetParam() << " " << name;
      }
    }
    const std::string json = ResultJson(r);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": ", 0), 0u)
        << json;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("shuffle", "pipeline",
                                           "consensus"));

std::vector<TargetDigest> Digests(
    const std::vector<std::vector<uint64_t>>& keys) {
  std::vector<TargetDigest> out(keys.size());
  for (size_t t = 0; t < keys.size(); ++t) {
    for (uint64_t k : keys[t]) out[t].Add(k);
  }
  return out;
}

TEST(ChecksTest, ShuffleAcceptsIntactResult) {
  const auto expected = Digests({{1, 2, 3}, {4, 5}});
  EXPECT_TRUE(CheckShuffle(expected, Digests({{3, 1, 2}, {5, 4}})).ok());
}

TEST(ChecksTest, ShuffleReportsOneDroppedTuple) {
  const auto expected = Digests({{1, 2, 3}, {4, 5}});
  const CheckResult r = CheckShuffle(expected, Digests({{1, 2, 3}, {4}}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.failures, 1u);
}

TEST(ChecksTest, ShuffleReportsDuplicateAndSwappedKey) {
  const auto expected = Digests({{1, 2, 3}, {4, 5}});
  EXPECT_FALSE(CheckShuffle(expected, Digests({{1, 2, 3, 3}, {4, 5}})).ok());
  EXPECT_FALSE(CheckShuffle(expected, Digests({{1, 2, 9}, {4, 5}})).ok());
}

PipelineObservation Observe(const WindowMap& windows, size_t subscribers) {
  PipelineObservation obs;
  obs.windows = windows;
  obs.fingerprints.assign(subscribers, Fingerprint(windows));
  obs.rows.assign(subscribers, windows.size());
  return obs;
}

TEST(ChecksTest, PipelineAcceptsIntactResult) {
  const WindowMap ref = {{1, {3, 30}}, {2, {1, 7}}, {1u << 20, {2, 9}}};
  EXPECT_TRUE(CheckPipeline(ref, Observe(ref, 4)).ok());
}

TEST(ChecksTest, PipelineReportsOneWindowSumChanged) {
  const WindowMap ref = {{1, {3, 30}}, {2, {1, 7}}, {1u << 20, {2, 9}}};
  WindowMap changed = ref;
  changed[2].second += 1;
  const CheckResult r = CheckPipeline(ref, Observe(changed, 4));
  EXPECT_FALSE(r.ok());
  // Subscriber 0's map and every subscriber's fingerprint disagree.
  EXPECT_EQ(r.failures, 1u + 4u);
}

TEST(ChecksTest, PipelineReportsOneTupleDropped) {
  const WindowMap ref = {{1, {3, 30}}, {2, {1, 7}}};
  WindowMap dropped = ref;
  dropped[1] = {2, 20};  // one tuple with val 10 missing from window 1
  EXPECT_FALSE(CheckPipeline(ref, Observe(dropped, 2)).ok());
}

TEST(ChecksTest, PipelineReportsOneSubscriberMissingARow) {
  const WindowMap ref = {{1, {3, 30}}, {2, {1, 7}}};
  PipelineObservation obs = Observe(ref, 3);
  obs.rows[2] -= 1;
  obs.fingerprints[2] -= RowHash(2, 1, 7);
  const CheckResult r = CheckPipeline(ref, obs);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.failures, 1u);
}

TEST(ChecksTest, ConsensusCountsUnfinishedRequests) {
  EXPECT_TRUE(CheckConsensus(true, 100, 100).ok());
  EXPECT_EQ(CheckConsensus(true, 100, 97).failures, 3u);
  EXPECT_FALSE(CheckConsensus(false, 100, 100).ok());
}

TEST(TraceTest, SelfTimeSubtractsNestedAndInterleavedSpans) {
  Tracer t;
  // Actor 1: push [0, 100); actor 2's consume [20, 50) runs while the push
  // is parked; actor 1's nested verify [60, 70).
  t.Add("push", 1, 0, 100);
  t.Add("consume", 2, 20, 50);
  t.Add("verify", 1, 60, 70);
  // A wait span covers nothing.
  t.Add("join", 0, 0, 200, Tracer::Kind::kWait);
  double unattributed = 0;
  const auto self = t.SelfTimes(0, 200, &unattributed);
  EXPECT_NEAR(self.at("push").self_s, 60e-9, 1e-15);
  EXPECT_NEAR(self.at("consume").self_s, 30e-9, 1e-15);
  EXPECT_NEAR(self.at("verify").self_s, 10e-9, 1e-15);
  EXPECT_NEAR(self.at("join").self_s, 0, 1e-15);
  EXPECT_NEAR(self.at("join").wall_s, 200e-9, 1e-15);
  EXPECT_NEAR(unattributed, 100e-9, 1e-15);
}

TEST(TraceTest, SelfTimeLetsTheLaterSpanOwnAnOverlap) {
  Tracer t;
  // Interleaved, not nested: [0, 50) and [30, 80).
  t.Add("a", 1, 0, 50);
  t.Add("b", 2, 30, 80);
  double unattributed = 0;
  const auto self = t.SelfTimes(0, 100, &unattributed);
  EXPECT_NEAR(self.at("a").self_s, 30e-9, 1e-15);
  EXPECT_NEAR(self.at("b").self_s, 50e-9, 1e-15);
  EXPECT_NEAR(unattributed, 20e-9, 1e-15);
}

TEST(TraceTest, ParentIsTheActorsOpenSpan) {
  Tracer t;
  const int outer = t.Open("outer", 3);
  const int inner = t.Open("inner", 3);
  const int other = t.Open("other", 4);
  t.Close(other);
  t.Close(inner);
  t.Close(outer);
  EXPECT_EQ(t.spans()[inner].parent, outer);
  EXPECT_EQ(t.spans()[other].parent, -1);
  EXPECT_EQ(t.spans()[outer].parent, -1);
}

}  // namespace
}  // namespace perfbench
