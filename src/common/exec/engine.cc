#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "common/exec/engine.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <new>
#include <set>
#include <utility>

#include "common/logging.h"

// Sanitizer fiber support: without these annotations ASan cannot track the
// fiber stacks across a switch and TSan reports every cross-fiber access as
// a race. Both interfaces are feature-detected so plain builds pay
// nothing.
#if defined(__SANITIZE_ADDRESS__)
#define DFI_EXEC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DFI_EXEC_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define DFI_EXEC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DFI_EXEC_TSAN 1
#endif
#endif

#if defined(DFI_EXEC_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(DFI_EXEC_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "the exec engine's fiber switch is written for x86-64 only"
#endif

// Fiber switch without a syscall. dfi_exec_fiber_switch pushes the
// callee-saved registers, MXCSR and the x87 control word onto the current
// stack, stores the stack pointer in *save_sp, loads load_sp and pops the
// other side's frame (a SwitchFrame). The signal mask is not switched.
// dfi_exec_fiber_entry is the return address of a fresh fiber's frame: it
// calls r13(r12), i.e. Engine::Impl::Trampoline(task), with rsp 16-byte
// aligned, and marks the end of the stack for unwinders.
extern "C" {
void dfi_exec_fiber_switch(void** save_sp, void* load_sp);
void dfi_exec_fiber_entry();
}

asm(R"(
  .pushsection .text
  .globl dfi_exec_fiber_switch
  .hidden dfi_exec_fiber_switch
  .type dfi_exec_fiber_switch, @function
  .p2align 4
dfi_exec_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size dfi_exec_fiber_switch, .-dfi_exec_fiber_switch

  .globl dfi_exec_fiber_entry
  .hidden dfi_exec_fiber_entry
  .type dfi_exec_fiber_entry, @function
  .p2align 4
dfi_exec_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size dfi_exec_fiber_entry, .-dfi_exec_fiber_entry
  .popsection
)");

namespace dfi::exec {

namespace {

constexpr SimTime kMaxSimTime = std::numeric_limits<SimTime>::max();

/// What dfi_exec_fiber_switch leaves at a suspended fiber's saved stack
/// pointer, lowest address first.
struct SwitchFrame {
  uint32_t mxcsr;
  uint16_t fpu_cw, pad;
  uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) % 16 == 0, "rsp 16-aligned at entry call");

/// One switchable execution context: either a worker thread's native stack
/// or a task's fiber stack.
struct FiberCtx {
  void* sp = nullptr;  // saved stack pointer while switched away
#if defined(DFI_EXEC_ASAN)
  void* asan_fake = nullptr;
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
#endif
#if defined(DFI_EXEC_TSAN)
  void* tsan_fiber = nullptr;
#endif
};

std::atomic<Engine*> g_active_engine{nullptr};
std::atomic<uint64_t> g_progress_epoch{0};

}  // namespace

struct Task {
  enum class State : uint8_t { kRunnable, kRunning, kParked, kDone };

  Engine::Impl* impl = nullptr;
  uint64_t id = 0;
  uint32_t domain = 0;
  std::string name;
  std::function<void()> fn;

  /// Last virtual time the task reported at a scheduling point. Run queues
  /// are ordered by (vt, id); the engine-wide floor is the minimum over
  /// runnable and running tasks and pending timer wakeups.
  SimTime vt = 0;
  State state = State::kRunnable;

  WaitPoint* wp = nullptr;
  SimTime timed_key = 0;
  bool in_timed = false;
  WakeCause wake_cause = WakeCause::kNotified;
  ActorGroup* group = nullptr;

  FiberCtx ctx;
  void* stack_base = nullptr;  // mmap base; first page is a PROT_NONE guard
  size_t stack_total = 0;
};

namespace {

thread_local Task* g_current_task = nullptr;
thread_local FiberCtx* g_worker_ctx = nullptr;

/// Switches from `from` to `to`. The caller must hold `mu`; it stays held
/// across the switch (same OS thread) and the resumed side is responsible
/// for releasing it, so TSan, which tracks lock ownership per fiber, is told
/// of a release here and an acquire on the other side. A finished task
/// switches away `dying`: ASan drops its fake stack and it never resumes.
void SwitchContext(FiberCtx* from, FiberCtx* to,
                   [[maybe_unused]] std::mutex* mu, bool dying = false) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_start_switch_fiber(dying ? nullptr : &from->asan_fake,
                                 to->stack_bottom, to->stack_size);
#endif
#if defined(DFI_EXEC_TSAN)
  __tsan_mutex_pre_unlock(mu, 0);
  __tsan_mutex_post_unlock(mu, 0);
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  dfi_exec_fiber_switch(&from->sp, to->sp);
  DFI_CHECK(!dying) << "finished task resumed";
  // Resumed in `from` again (possibly on a different OS thread / worker).
#if defined(DFI_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(from->asan_fake, nullptr, nullptr);
#endif
#if defined(DFI_EXEC_TSAN)
  __tsan_mutex_pre_lock(mu, 0);
  __tsan_mutex_post_lock(mu, 0, 0);
#endif
}

}  // namespace

struct Engine::Impl {
  struct Domain {
    std::vector<Task*> heap;  // min-heap by (vt, id)
  };
  struct RunningSlot {
    Task* task = nullptr;
    SimTime vt = 0;  // vt at dispatch; conservative lower bound while running
  };

  static bool HeapAfter(const Task* a, const Task* b) {
    return a->vt != b->vt ? a->vt > b->vt : a->id > b->id;
  }

  EngineOptions opts;
  Engine* self = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Domain> domains_;
  std::multiset<std::pair<SimTime, Task*>> timed_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<RunningSlot> running_;
  uint64_t next_id_ = 0;
  size_t live_ = 0;
  uint32_t rescues_ = 0;
  WaitPoint idle_point_;

  // ---- run-queue plumbing (all under mu_) --------------------------------

  void MakeRunnableLocked(Task* t) {
    t->state = Task::State::kRunnable;
    Domain& d = domains_[t->domain];
    d.heap.push_back(t);
    std::push_heap(d.heap.begin(), d.heap.end(), HeapAfter);
  }

  Task* PopDomainLocked(uint32_t dom) {
    Domain& d = domains_[dom];
    std::pop_heap(d.heap.begin(), d.heap.end(), HeapAfter);
    Task* t = d.heap.back();
    d.heap.pop_back();
    return t;
  }

  SimTime FloorLocked() const {
    SimTime f = kMaxSimTime;
    for (const RunningSlot& slot : running_) {
      if (slot.task != nullptr) f = std::min(f, slot.vt);
    }
    for (const Domain& d : domains_) {
      if (!d.heap.empty()) f = std::min(f, d.heap.front()->vt);
    }
    if (!timed_.empty()) f = std::min(f, timed_.begin()->first);
    return f;
  }

  /// Moves timer-parked tasks whose wake time the floor has reached back to
  /// their run queues (the DES jump: an otherwise idle fleet skips straight
  /// to the next wake time). Returns whether anything was released.
  bool ReleaseTimedLocked(SimTime floor) {
    bool released = false;
    while (!timed_.empty() && timed_.begin()->first <= floor) {
      Task* t = timed_.begin()->second;
      timed_.erase(timed_.begin());
      t->in_timed = false;
      DetachWaiterLocked(t);
      t->wake_cause = WakeCause::kTimer;
      t->vt = t->timed_key;  // the wait ledger says this much time passed
      MakeRunnableLocked(t);
      released = true;
    }
    return released;
  }

  void DetachWaiterLocked(Task* t) {
    DFI_CHECK(t->wp != nullptr) << "parked task without wait point";
    auto& w = t->wp->waiters_;
    auto it = std::find(w.begin(), w.end(), t);
    DFI_CHECK(it != w.end()) << "parked task missing from wait point";
    w.erase(it);
    t->wp->nparked_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void WakeAllOfLocked(WaitPoint* wp) {
    for (Task* t : wp->waiters_) {
      if (t->in_timed) {
        timed_.erase(timed_.find({t->timed_key, t}));
        t->in_timed = false;
      }
      t->wake_cause = WakeCause::kNotified;
      MakeRunnableLocked(t);
    }
    wp->waiters_.clear();
    wp->nparked_.store(0, std::memory_order_seq_cst);
  }

  void WakeAllOf(WaitPoint* wp) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      WakeAllOfLocked(wp);
    }
    cv_.notify_all();
  }

  /// Picks worker `w`'s next task: the minimal task among the worker's own
  /// domains if it lies within the lookahead window, else the globally
  /// minimal task (stealing). Returns nullptr when nothing is eligible.
  Task* PickEligibleLocked(uint32_t w, SimTime floor) {
    const SimTime horizon =
        (floor >= kMaxSimTime - opts.lookahead_ns) ? kMaxSimTime
                                                   : floor + opts.lookahead_ns;
    uint32_t best_dom = UINT32_MAX;
    const Task* best = nullptr;
    for (uint32_t dom = w; dom < domains_.size(); dom += opts.workers) {
      const Domain& d = domains_[dom];
      if (d.heap.empty()) continue;
      const Task* top = d.heap.front();
      if (best == nullptr || HeapAfter(best, top)) {
        best = top;
        best_dom = dom;
      }
    }
    if (best == nullptr || best->vt > horizon) {
      // Own queues drained (or too far ahead): steal the global minimum.
      best = nullptr;
      for (uint32_t dom = 0; dom < domains_.size(); ++dom) {
        const Domain& d = domains_[dom];
        if (d.heap.empty()) continue;
        const Task* top = d.heap.front();
        if (best == nullptr || HeapAfter(best, top)) {
          best = top;
          best_dom = dom;
        }
      }
    }
    if (best == nullptr || best->vt > horizon) return nullptr;
    return PopDomainLocked(best_dom);
  }

  /// Last-resort sweep when every worker is idle yet live tasks remain:
  /// wakes all parked tasks so they re-check their predicates. The park
  /// protocol makes lost wakeups impossible by construction, so this fires
  /// only on bugs — after repeated fruitless sweeps it aborts with the
  /// stalled-task list instead of hanging silently.
  void RescueLocked() {
    bool any_ready = !timed_.empty();
    for (const Domain& d : domains_) any_ready |= !d.heap.empty();
    for (const RunningSlot& s : running_) any_ready |= s.task != nullptr;
    if (any_ready || live_ == 0) return;
    ++rescues_;
    if (rescues_ >= 200) {
      std::string stalled;
      for (const auto& t : tasks_) {
        if (t->state == Task::State::kParked) stalled += " " + t->name;
      }
      DFI_CHECK(false) << "engine stalled: parked tasks never woken:"
                       << stalled;
    }
    for (const auto& t : tasks_) {
      if (t->state != Task::State::kParked) continue;
      if (t->in_timed) {
        timed_.erase(timed_.find({t->timed_key, t.get()}));
        t->in_timed = false;
      }
      DetachWaiterLocked(t.get());
      t->wake_cause = WakeCause::kNotified;
      MakeRunnableLocked(t.get());
    }
  }

  // ---- fiber lifecycle ----------------------------------------------------

  [[noreturn]] static void Trampoline(Task* t);

  void CreateFiber(Task* t) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t stack = (opts.stack_bytes + page - 1) / page * page;
    t->stack_total = stack + page;
    void* base = mmap(nullptr, t->stack_total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    DFI_CHECK(base != MAP_FAILED) << "fiber stack mmap failed";
    DFI_CHECK(mprotect(base, page, PROT_NONE) == 0) << "guard page";
    t->stack_base = base;
#if defined(DFI_EXEC_ASAN)
    t->ctx.stack_bottom = static_cast<char*>(base) + page;
    t->ctx.stack_size = stack;
    // A recycled mapping may still carry a dead fiber's stack poison.
    __asan_unpoison_memory_region(t->ctx.stack_bottom, stack);
#endif
#if defined(DFI_EXEC_TSAN)
    t->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
    auto* frame = new (static_cast<char*>(base) + t->stack_total -
                       sizeof(SwitchFrame)) SwitchFrame{};
    // The fiber starts with its spawner's floating-point control state.
    asm volatile("stmxcsr %0\n\tfnstcw %1"
                 : "=m"(frame->mxcsr), "=m"(frame->fpu_cw));
    frame->r12 = reinterpret_cast<uint64_t>(t);
    frame->r13 = reinterpret_cast<uint64_t>(&Trampoline);
    frame->ret = &dfi_exec_fiber_entry;
    t->ctx.sp = frame;
  }

  void ReleaseFiber(Task* t) {
#if defined(DFI_EXEC_TSAN)
    if (t->ctx.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(t->ctx.tsan_fiber);
      t->ctx.tsan_fiber = nullptr;
    }
#endif
    if (t->stack_base != nullptr) {
      munmap(t->stack_base, t->stack_total);
      t->stack_base = nullptr;
    }
    t->fn = nullptr;
  }

  void SpawnLocked(uint32_t domain, std::string name, std::function<void()> fn,
                   ActorGroup* group) {
    if (domain >= domains_.size()) domains_.resize(domain + 1);
    auto task = std::make_unique<Task>();
    Task* t = task.get();
    t->impl = this;
    t->id = next_id_++;
    t->domain = domain;
    t->name = std::move(name);
    t->fn = std::move(fn);
    t->group = group;
    // Children start at the spawner's virtual time so a late spawn does not
    // drag the engine floor back to zero.
    t->vt = (g_current_task != nullptr && g_current_task->impl == this)
                ? g_current_task->vt
                : 0;
    CreateFiber(t);
    ++live_;
    MakeRunnableLocked(t);
    tasks_.push_back(std::move(task));
  }

  /// Called from a finishing task's fiber; never returns.
  [[noreturn]] void FinishCurrentTask(Task* t) {
    mu_.lock();
    t->state = Task::State::kDone;
    --live_;
    rescues_ = 0;
    if (t->group != nullptr &&
        t->group->live_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      WakeAllOfLocked(&t->group->done_);
    }
    cv_.notify_all();
    SwitchContext(&t->ctx, g_worker_ctx, &mu_, /*dying=*/true);
    __builtin_unreachable();
  }

  void WorkerLoop(uint32_t w) {
    FiberCtx self_ctx;
#if defined(DFI_EXEC_ASAN)
    {
      pthread_attr_t attr;
      if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void* addr = nullptr;
        size_t size = 0;
        pthread_attr_getstack(&attr, &addr, &size);
        self_ctx.stack_bottom = addr;
        self_ctx.stack_size = size;
        pthread_attr_destroy(&attr);
      }
    }
#endif
#if defined(DFI_EXEC_TSAN)
    self_ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
    g_worker_ctx = &self_ctx;

    mu_.lock();
    for (;;) {
      if (live_ == 0) {
        cv_.notify_all();
        break;
      }
      const SimTime floor = FloorLocked();
      if (ReleaseTimedLocked(floor)) {
        cv_.notify_all();
        continue;
      }
      Task* t = PickEligibleLocked(w, floor);
      if (t == nullptr) {
        std::unique_lock<std::mutex> lk(mu_, std::adopt_lock);
        if (cv_.wait_for(lk, std::chrono::milliseconds(50)) ==
            std::cv_status::timeout) {
          RescueLocked();
        }
        lk.release();  // keep mu_ held for the next iteration
        continue;
      }
      t->state = Task::State::kRunning;
      running_[w] = RunningSlot{t, t->vt};
      g_current_task = t;
      SwitchContext(&self_ctx, &t->ctx, &mu_);
      // The task parked, yielded or finished; mu_ is held again.
      g_current_task = nullptr;
      running_[w].task = nullptr;
      if (t->state == Task::State::kDone) ReleaseFiber(t);
    }
    mu_.unlock();
    g_worker_ctx = nullptr;
  }
};

void Engine::Impl::Trampoline(Task* t) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(t->ctx.asan_fake, nullptr, nullptr);
#endif
#if defined(DFI_EXEC_TSAN)
  __tsan_mutex_pre_lock(&t->impl->mu_, 0);  // see SwitchContext
  __tsan_mutex_post_lock(&t->impl->mu_, 0, 0);
#endif
  t->impl->mu_.unlock();  // dispatched with the scheduler lock held
  t->fn();
  t->impl->FinishCurrentTask(t);
}

// ---- Engine --------------------------------------------------------------

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->opts = options;
  impl_->self = this;
  workers_ = options.workers != 0 ? options.workers
                                  : std::max(1u,
                                             std::thread::hardware_concurrency());
  impl_->opts.workers = workers_;
  impl_->running_.resize(workers_);
}

Engine::~Engine() {
  for (const auto& t : impl_->tasks_) impl_->ReleaseFiber(t.get());
}

void Engine::Spawn(uint32_t domain, std::string name,
                   std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  impl_->SpawnLocked(domain, std::move(name), std::move(fn), nullptr);
  impl_->cv_.notify_all();
}

void Engine::Run() {
  Engine* expected = nullptr;
  DFI_CHECK(g_active_engine.compare_exchange_strong(expected, this))
      << "nested Engine::Run";
  std::vector<std::thread> pool;
  pool.reserve(workers_ - 1);
  for (uint32_t w = 1; w < workers_; ++w) {
    pool.emplace_back([this, w] { impl_->WorkerLoop(w); });
  }
  impl_->WorkerLoop(0);
  for (std::thread& th : pool) th.join();
  g_active_engine.store(nullptr);
}

Engine* Engine::Current() {
  return g_current_task != nullptr ? g_current_task->impl->self : nullptr;
}

Engine* Engine::Active() {
  return g_active_engine.load(std::memory_order_seq_cst);
}

WakeCause Engine::ParkImpl(WaitPoint* wp, bool (*changed)(void*), void* arg,
                           SimTime now, SimTime wake_at) {
  Task* t = g_current_task;
  DFI_CHECK(t != nullptr) << "Park called outside an engine task";
  Impl* im = t->impl;
  im->mu_.lock();
  if (now >= 0) t->vt = now;
  // Dekker handshake: publish intent to park before re-checking the
  // condition; notifiers bump their version before reading nparked_.
  wp->nparked_.fetch_add(1, std::memory_order_seq_cst);
  if (changed(arg)) {
    wp->nparked_.fetch_sub(1, std::memory_order_seq_cst);
    im->mu_.unlock();
    return WakeCause::kNotified;
  }
  t->state = Task::State::kParked;
  t->wp = wp;
  wp->waiters_.push_back(t);
  if (wake_at != kNoTimer) {
    t->timed_key = std::max(wake_at, t->vt);
    t->in_timed = true;
    im->timed_.insert({t->timed_key, t});
  }
  im->cv_.notify_all();  // the floor may have moved
  SwitchContext(&t->ctx, g_worker_ctx, &im->mu_);
  const WakeCause cause = t->wake_cause;
  t->wp = nullptr;
  im->mu_.unlock();
  return cause;
}

void Engine::Yield(SimTime now) {
  Task* t = g_current_task;
  if (t == nullptr) return;
  Impl* im = t->impl;
  im->mu_.lock();
  if (now >= 0) t->vt = now;
  im->MakeRunnableLocked(t);
  im->cv_.notify_all();
  SwitchContext(&t->ctx, g_worker_ctx, &im->mu_);
  im->mu_.unlock();
}

// ---- WaitPoint -----------------------------------------------------------

void WaitPoint::WakeAll() {
  if (nparked_.load(std::memory_order_seq_cst) == 0) return;
  Engine* e = Engine::Active();
  if (e == nullptr) return;
  e->impl_->WakeAllOf(this);
}

// ---- progress epoch ------------------------------------------------------

uint64_t ProgressEpoch() {
  return g_progress_epoch.load(std::memory_order_seq_cst);
}

void BumpProgress() {
  g_progress_epoch.fetch_add(1, std::memory_order_seq_cst);
  Engine* e = Engine::Active();
  if (e != nullptr) e->impl_->idle_point_.WakeAll();
}

void IdleWait(uint64_t seen_epoch) {
  Engine* e = Engine::Current();
  DFI_CHECK(e != nullptr) << "IdleWait outside an engine task";
  Engine::Park(&e->impl_->idle_point_,
               [seen_epoch] { return ProgressEpoch() != seen_epoch; },
               /*now=*/-1, Engine::kNoTimer);
}

// ---- ActorGroup ----------------------------------------------------------

void ActorGroup::Spawn(uint32_t domain, std::string name,
                       std::function<void()> fn) {
  Engine* e = Engine::Current();
  if (e == nullptr) {
    threads_.emplace_back(std::move(fn));
    return;
  }
  engine_ = e;
  live_.fetch_add(1, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(e->impl_->mu_);
  e->impl_->SpawnLocked(domain, std::move(name), std::move(fn), this);
  e->impl_->cv_.notify_all();
}

void ActorGroup::Join() {
  if (engine_ != nullptr) {
    while (live_.load(std::memory_order_seq_cst) != 0) {
      Engine::Park(&done_,
                   [this] {
                     return live_.load(std::memory_order_seq_cst) == 0;
                   },
                   /*now=*/-1, Engine::kNoTimer);
    }
    engine_ = nullptr;
  }
  for (std::thread& th : threads_) th.join();
  threads_.clear();
}

}  // namespace dfi::exec
