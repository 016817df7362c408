#include "cc/trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int Tracer::Open(const char* name, uint32_t actor, Kind kind) {
  if (actor >= stacks_.size()) stacks_.resize(actor + 1);
  std::vector<int32_t>& stack = stacks_[actor];
  Span s;
  s.name = name;
  s.start_ns = Now();
  s.parent = stack.empty() ? -1 : stack.back();
  s.actor = actor;
  s.run_id = run_id_;
  s.kind = kind;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(s);
  stack.push_back(index);
  return index;
}

void Tracer::Close(int span) {
  Span& s = spans_[span];
  s.end_ns = Now();
  std::vector<int32_t>& stack = stacks_[s.actor];
  if (!stack.empty() && stack.back() == span) stack.pop_back();
}

void Tracer::Add(const char* name, uint32_t actor, int64_t start_ns,
                 int64_t end_ns, Kind kind) {
  if (actor >= stacks_.size()) stacks_.resize(actor + 1);
  const std::vector<int32_t>& stack = stacks_[actor];
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = stack.empty() ? -1 : stack.back();
  s.actor = actor;
  s.run_id = run_id_;
  s.kind = kind;
  spans_.push_back(s);
}

void Tracer::Truncate(size_t first) {
  if (first < spans_.size()) spans_.resize(first);
}

std::map<std::string, Tracer::LayerTime> Tracer::SelfTimes(
    int64_t from_ns, int64_t to_ns, double* unattributed_s) const {
  std::map<std::string, LayerTime> out;
  // Sweep over span boundaries; +1 opens, -1 closes. Closes sort before
  // opens at the same instant so a zero-length gap attributes nothing.
  struct Event {
    int64_t t;
    int delta;
    int32_t span;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const int64_t a = std::max(s.start_ns, from_ns);
    const int64_t b = std::min(s.end_ns, to_ns);
    if (a >= b) continue;
    LayerTime& lt = out[s.name];
    lt.wall_s += static_cast<double>(b - a) * 1e-9;
    lt.count += 1;
    if (s.kind != Kind::kCall) continue;
    events.push_back({a, +1, static_cast<int32_t>(i)});
    events.push_back({b, -1, static_cast<int32_t>(i)});
  }
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return x.t != y.t ? x.t < y.t : x.delta < y.delta;
  });
  // Open spans ordered by (start, index): the last one owns the instant.
  std::set<std::pair<int64_t, int32_t>> open;
  std::vector<int64_t> self_ns(spans_.size(), 0);
  int64_t covered = 0;
  int64_t prev = from_ns;
  for (const Event& e : events) {
    if (!open.empty() && e.t > prev) {
      self_ns[open.rbegin()->second] += e.t - prev;
      covered += e.t - prev;
    }
    prev = e.t;
    const std::pair<int64_t, int32_t> key{
        std::max(spans_[e.span].start_ns, from_ns), e.span};
    if (e.delta > 0) {
      open.insert(key);
    } else {
      open.erase(key);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (self_ns[i] != 0) {
      out[spans_[i].name].self_s += static_cast<double>(self_ns[i]) * 1e-9;
    }
  }
  if (unattributed_s != nullptr) {
    *unattributed_s = static_cast<double>(to_ns - from_ns - covered) * 1e-9;
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path, size_t first,
                             size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t last = std::min(spans_.size(), first + max_events);
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":%zu,"
               "\"omitted\":%zu},\"traceEvents\":[\n",
               spans_.size() - first, spans_.size() - last);
  bool comma = false;
  for (size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 comma ? "," : "", s.name,
                 s.kind == Kind::kCall ? "call" : "wait",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.run_id,
                 s.actor, i, s.parent);
    comma = true;
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
