#ifndef DFI_COMMON_EXEC_ENGINE_H_
#define DFI_COMMON_EXEC_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/sim_time.h"

namespace dfi::exec {

class Engine;
struct Task;

/// Park list embedded in a blocking primitive (RingSync, ReadyGate, MPI
/// mailboxes). Tasks park here; WakeAll() makes every parked task runnable
/// again. Everything runs on the engine's one OS thread, so a predicate
/// checked right before parking cannot miss a wakeup.
class WaitPoint {
 public:
  WaitPoint() = default;
  WaitPoint(const WaitPoint&) = delete;
  WaitPoint& operator=(const WaitPoint&) = delete;

  /// Makes every parked task runnable. Cheap when nothing is parked.
  void WakeAll();

 private:
  friend class Engine;
  std::vector<Task*> waiters_;
};

/// Why a timed park returned.
enum class WakeCause : uint8_t { kNotified, kTimer };

/// Fiber stack size (plus one guard page).
inline constexpr size_t kFiberStackBytes = 256 * 1024;

/// Compatibility fields only: the engine always runs on one OS thread.
/// The repository benchmark still constructs
/// `Engine({.workers = 1, .lookahead_ns = 1000})`; a later change to the
/// benchmark removes both fields. No other caller may set them.
struct EngineOptions {
  uint32_t workers = 1;  // must be 1
  SimTime lookahead_ns = 1000;  // ignored
};

/// Deterministic virtual-time engine. Emulated actors are cooperatively
/// scheduled stackful fibers, switched in user space without a syscall
/// (x86-64 only), all on the OS thread that calls Run(). The scheduler
/// always resumes the runnable task with the smallest (virtual time, spawn
/// id); a task parked with a timer becomes runnable once every runnable
/// task's virtual time has passed the timer. One thread and one total order
/// make every run of a workload identical.
///
/// Usage:
///   exec::Engine engine;
///   engine.Spawn(0, "source-3", [&] { ... });
///   engine.Run();  // returns when every task has finished
/// or, for one root task, exec::RunOnEngine(fn).
class Engine {
 public:
  /// Sentinel for Park(): no timer, wake on Notify only.
  static constexpr SimTime kNoTimer = -1;

  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Adds a task. Callable before Run() and from inside a running task.
  /// `domain` is ignored (kept for existing callers).
  void Spawn(uint32_t domain, std::string name, std::function<void()> fn);

  /// Runs until all spawned tasks finish, on the calling thread. Dies with
  /// the list of parked tasks if live tasks remain but none can ever run.
  void Run();

  /// Engine owning the calling fiber; nullptr on a plain OS thread.
  static Engine* Current();

  /// Parks the calling task on `wp` until WakeAll, or, when
  /// `wake_at != kNoTimer`, until the engine reaches virtual time `wake_at`
  /// (a DES jump: an idle fleet skips straight to the next wake time).
  /// If `changed` already returns true the park is skipped. `now` (>= 0)
  /// reports the task's current virtual time for scheduling order; pass a
  /// negative value to keep the last reported time.
  template <typename Pred>
  static WakeCause Park(WaitPoint* wp, Pred&& changed, SimTime now,
                        SimTime wake_at) {
    using P = std::remove_reference_t<Pred>;
    auto thunk = [](void* p) { return static_cast<bool>((*static_cast<P*>(p))()); };
    return ParkImpl(wp, thunk, &changed, now, wake_at);
  }

  /// Cooperative yield at virtual time `now`: lets every task that orders
  /// before the caller run first. Returns without a fiber switch when the
  /// caller would be picked again anyway.
  static void Yield(SimTime now);

 private:
  friend class WaitPoint;
  friend class ActorGroup;
  friend struct Task;
  friend void BumpProgress();
  friend void IdleWait(uint64_t seen_epoch);
  struct Impl;

  static WakeCause ParkImpl(WaitPoint* wp, bool (*changed)(void*), void* arg,
                            SimTime now, SimTime wake_at);

  std::unique_ptr<Impl> impl_;
};

/// Monotone counter bumped on every Notify/Enqueue in the process — the
/// global "something happened" signal poll loops park on.
uint64_t ProgressEpoch();
void BumpProgress();

/// Poll-loop backoff. Capture `seen = ProgressEpoch()` *before* the poll
/// round; when the round made no progress, IdleWait(seen) parks the calling
/// task until the epoch moves. The caller must be an engine task.
void IdleWait(uint64_t seen_epoch);

/// A set of actors spawned as tasks of the calling task's engine, joined as
/// one. Spawn must be called from inside an engine task (see RunOnEngine).
class ActorGroup {
 public:
  ActorGroup() = default;
  ~ActorGroup() { Join(); }
  ActorGroup(const ActorGroup&) = delete;
  ActorGroup& operator=(const ActorGroup&) = delete;

  void Spawn(std::string name, std::function<void()> fn);
  /// Parks the calling task until every spawned actor finished.
  void Join();

 private:
  friend class Engine;
  uint32_t live_ = 0;
  WaitPoint done_;
};

/// Runs `fn` as the root task of a fresh engine on the calling thread and
/// returns its result. Actors that `fn` spawns through ActorGroup run on the
/// same engine.
template <typename Fn>
auto RunOnEngine(Fn&& fn) -> std::invoke_result_t<Fn&> {
  using R = std::invoke_result_t<Fn&>;
  Engine engine;
  if constexpr (std::is_void_v<R>) {
    engine.Spawn(0, "root", [&] { fn(); });
    engine.Run();
  } else {
    std::optional<R> out;
    engine.Spawn(0, "root", [&] { out.emplace(fn()); });
    engine.Run();
    return std::move(*out);
  }
}

}  // namespace dfi::exec

#endif  // DFI_COMMON_EXEC_ENGINE_H_
