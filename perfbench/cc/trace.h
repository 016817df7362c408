#ifndef PERFBENCH_CC_TRACE_H_
#define PERFBENCH_CC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. The engine runs with one
/// worker, so every fiber shares one host timeline and the recorder needs
/// no locking; spans of different fibers interleave on that timeline.
///
/// A span is one call into a layer, timed from the benchmark's own code.
/// Spans of the same actor nest through a per-actor stack (the parent);
/// spans of different actors overlap whenever a fiber parks inside a call
/// and another fiber runs.
class Tracer {
 public:
  /// kCall spans count as covered host time; kWait spans (joins that park
  /// for a whole phase, such as GraphRun::Finish) are recorded for the
  /// timeline but cover nothing.
  enum class Kind : uint8_t { kCall, kWait };

  struct Span {
    const char* name = nullptr;  // static string
    int64_t start_ns = 0;        // since the tracer's epoch
    int64_t end_ns = -1;         // -1 while open
    int32_t parent = -1;         // index into spans(), -1 for none
    uint32_t actor = 0;
    uint32_t run_id = 0;
    Kind kind = Kind::kCall;
  };

  /// Host time of one span name, over a window.
  struct LayerTime {
    double self_s = 0;  // covered time attributed to this name
    double wall_s = 0;  // summed durations
    uint64_t count = 0;
  };

  Tracer();

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Tags every later span with `run_id` (one id per workload iteration).
  void set_run_id(uint32_t run_id) { run_id_ = run_id; }

  int Open(const char* name, uint32_t actor, Kind kind = Kind::kCall);
  void Close(int span);
  /// Records a finished span in one step.
  void Add(const char* name, uint32_t actor, int64_t start_ns, int64_t end_ns,
           Kind kind = Kind::kCall);

  /// Drops every span with index >= `first`; all of them must be closed.
  void Truncate(size_t first);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Self time per span name over [from_ns, to_ns): at each instant the
  /// covered time belongs to the open kCall span that started last — so a
  /// span's self time is its duration minus the time covered by spans
  /// started inside it, including spans of other fibers that ran while it
  /// was parked. Time covered by no kCall span goes to `*unattributed_s`.
  std::map<std::string, LayerTime> SelfTimes(int64_t from_ns, int64_t to_ns,
                                             double* unattributed_s) const;

  /// Writes the spans with index >= `first` as Chrome trace-event JSON
  /// ("X" events; pid = run id, tid = actor), at most `max_events` of them
  /// (the file says how many were left out). Returns false on I/O error.
  bool WriteChromeJson(const std::string& path, size_t first,
                       size_t max_events) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  uint32_t run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::vector<int32_t>> stacks_;  // per actor: open span indices
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t actor,
             Tracer::Kind kind = Tracer::Kind::kCall)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Open(name, actor, kind) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_TRACE_H_
