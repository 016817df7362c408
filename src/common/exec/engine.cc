#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "common/exec/engine.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
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

/// What dfi_exec_fiber_switch leaves at a suspended fiber's saved stack
/// pointer, lowest address first.
struct SwitchFrame {
  uint32_t mxcsr;
  uint16_t fpu_cw, pad;
  uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) % 16 == 0, "rsp 16-aligned at entry call");

/// One switchable execution context: either the scheduler's native stack
/// (the thread inside Engine::Run) or a task's fiber stack.
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

Engine* g_active_engine = nullptr;
uint64_t g_progress_epoch = 0;

}  // namespace

struct Task {
  enum class State : uint8_t { kRunnable, kRunning, kParked, kDone };

  Engine::Impl* impl = nullptr;
  uint64_t id = 0;
  std::string name;
  std::function<void()> fn;

  /// Last virtual time the task reported at a scheduling point; the run
  /// queue is ordered by (vt, id).
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

Task* g_current_task = nullptr;

/// Switches from `from` to `to`. A finished task switches away `dying`:
/// ASan drops its fake stack and it never resumes.
void SwitchContext(FiberCtx* from, FiberCtx* to, bool dying = false) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_start_switch_fiber(dying ? nullptr : &from->asan_fake,
                                 to->stack_bottom, to->stack_size);
#endif
#if defined(DFI_EXEC_TSAN)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  dfi_exec_fiber_switch(&from->sp, to->sp);
  DFI_CHECK(!dying) << "finished task resumed";
#if defined(DFI_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(from->asan_fake, nullptr, nullptr);
#endif
}

}  // namespace

struct Engine::Impl {
  static bool HeapAfter(const Task* a, const Task* b) {
    return a->vt != b->vt ? a->vt > b->vt : a->id > b->id;
  }

  Engine* self = nullptr;
  FiberCtx scheduler_ctx;
  std::vector<Task*> heap_;  // runnable tasks, min-heap by (vt, id)
  std::set<std::pair<SimTime, Task*>> timed_;  // timer-parked tasks
  std::vector<std::unique_ptr<Task>> tasks_;
  uint64_t next_id_ = 0;
  size_t live_ = 0;
  WaitPoint idle_point_;

  void MakeRunnable(Task* t) {
    t->state = Task::State::kRunnable;
    heap_.push_back(t);
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
  }

  Task* PopRunnable() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
    Task* t = heap_.back();
    heap_.pop_back();
    return t;
  }

  /// Once no runnable task orders before the earliest timer, releases every
  /// task parked with that wake time (the DES jump: an otherwise idle fleet
  /// skips straight to the next wake time).
  void ReleaseDueTimers() {
    if (timed_.empty()) return;
    const SimTime due = timed_.begin()->first;
    if (!heap_.empty() && heap_.front()->vt < due) return;
    while (!timed_.empty() && timed_.begin()->first == due) {
      Task* t = timed_.begin()->second;
      timed_.erase(timed_.begin());
      t->in_timed = false;
      auto& w = t->wp->waiters_;
      w.erase(std::find(w.begin(), w.end(), t));
      t->wake_cause = WakeCause::kTimer;
      t->vt = due;  // the wait ledger says this much time passed
      MakeRunnable(t);
    }
  }

  void WakeAllOf(WaitPoint* wp) {
    for (Task* t : wp->waiters_) {
      if (t->in_timed) {
        timed_.erase({t->timed_key, t});
        t->in_timed = false;
      }
      t->wake_cause = WakeCause::kNotified;
      MakeRunnable(t);
    }
    wp->waiters_.clear();
  }

  /// Parks or yields the calling task: back to the scheduler loop.
  void SwitchToScheduler(Task* t) { SwitchContext(&t->ctx, &scheduler_ctx); }

  [[noreturn]] void Stalled() const {
    std::string parked;
    for (const auto& t : tasks_) {
      if (t->state == Task::State::kParked) parked += " " + t->name;
    }
    DFI_CHECK(false) << "engine stalled: parked tasks never woken:" << parked;
    __builtin_unreachable();
  }

  // ---- fiber lifecycle ----------------------------------------------------

  [[noreturn]] static void Trampoline(Task* t);

  void CreateFiber(Task* t) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t stack = (kFiberStackBytes + page - 1) / page * page;
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

  void SpawnTask(std::string name, std::function<void()> fn,
                 ActorGroup* group) {
    auto task = std::make_unique<Task>();
    Task* t = task.get();
    t->impl = this;
    t->id = next_id_++;
    t->name = std::move(name);
    t->fn = std::move(fn);
    t->group = group;
    // Children start at the spawner's virtual time so a late spawn does not
    // jump ahead of everything already running.
    t->vt = (g_current_task != nullptr && g_current_task->impl == this)
                ? g_current_task->vt
                : 0;
    CreateFiber(t);
    ++live_;
    MakeRunnable(t);
    tasks_.push_back(std::move(task));
  }

  /// Called from a finishing task's fiber; never returns.
  [[noreturn]] void FinishCurrentTask(Task* t) {
    t->state = Task::State::kDone;
    --live_;
    if (t->group != nullptr && --t->group->live_ == 0) {
      WakeAllOf(&t->group->done_);
    }
    SwitchContext(&t->ctx, &scheduler_ctx, /*dying=*/true);
    __builtin_unreachable();
  }

  void RunLoop() {
#if defined(DFI_EXEC_ASAN)
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* addr = nullptr;
      size_t size = 0;
      pthread_attr_getstack(&attr, &addr, &size);
      scheduler_ctx.stack_bottom = addr;
      scheduler_ctx.stack_size = size;
      pthread_attr_destroy(&attr);
    }
#endif
#if defined(DFI_EXEC_TSAN)
    scheduler_ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
    while (live_ > 0) {
      ReleaseDueTimers();
      if (heap_.empty()) Stalled();
      Task* t = PopRunnable();
      t->state = Task::State::kRunning;
      g_current_task = t;
      SwitchContext(&scheduler_ctx, &t->ctx);
      // The task parked, yielded or finished.
      g_current_task = nullptr;
      if (t->state == Task::State::kDone) ReleaseFiber(t);
    }
  }
};

void Engine::Impl::Trampoline(Task* t) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(t->ctx.asan_fake, nullptr, nullptr);
#endif
  t->fn();
  t->impl->FinishCurrentTask(t);
}

// ---- Engine --------------------------------------------------------------

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>()) {
  DFI_CHECK_EQ(options.workers, 1u) << "the engine runs on one OS thread";
  impl_->self = this;
}

Engine::~Engine() {
  for (const auto& t : impl_->tasks_) impl_->ReleaseFiber(t.get());
}

void Engine::Spawn(uint32_t /*domain*/, std::string name,
                   std::function<void()> fn) {
  impl_->SpawnTask(std::move(name), std::move(fn), nullptr);
}

void Engine::Run() {
  DFI_CHECK(g_active_engine == nullptr) << "nested Engine::Run";
  g_active_engine = this;
  impl_->RunLoop();
  g_active_engine = nullptr;
}

Engine* Engine::Current() {
  return g_current_task != nullptr ? g_current_task->impl->self : nullptr;
}

WakeCause Engine::ParkImpl(WaitPoint* wp, bool (*changed)(void*), void* arg,
                           SimTime now, SimTime wake_at) {
  Task* t = g_current_task;
  DFI_CHECK(t != nullptr) << "Park called outside an engine task";
  if (now >= 0) t->vt = now;
  if (changed(arg)) return WakeCause::kNotified;
  Impl* im = t->impl;
  t->state = Task::State::kParked;
  t->wp = wp;
  wp->waiters_.push_back(t);
  if (wake_at != kNoTimer) {
    t->timed_key = std::max(wake_at, t->vt);
    t->in_timed = true;
    im->timed_.insert({t->timed_key, t});
  }
  im->SwitchToScheduler(t);
  t->wp = nullptr;
  return t->wake_cause;
}

void Engine::Yield(SimTime now) {
  Task* t = g_current_task;
  if (t == nullptr) return;
  Impl* im = t->impl;
  if (now >= 0) t->vt = now;
  // Return without a switch exactly when the scheduler would pick the
  // caller again: no runnable task orders before it and no timer is due by
  // its virtual time.
  if ((im->heap_.empty() || Impl::HeapAfter(im->heap_.front(), t)) &&
      (im->timed_.empty() || im->timed_.begin()->first > t->vt)) {
    return;
  }
  im->MakeRunnable(t);
  im->SwitchToScheduler(t);
}

// ---- WaitPoint -----------------------------------------------------------

void WaitPoint::WakeAll() {
  if (waiters_.empty()) return;
  waiters_.front()->impl->WakeAllOf(this);
}

// ---- progress epoch ------------------------------------------------------

uint64_t ProgressEpoch() { return g_progress_epoch; }

void BumpProgress() {
  ++g_progress_epoch;
  if (g_active_engine != nullptr) {
    g_active_engine->impl_->idle_point_.WakeAll();
  }
}

void IdleWait(uint64_t seen_epoch) {
  Engine* e = Engine::Current();
  DFI_CHECK(e != nullptr) << "IdleWait outside an engine task";
  Engine::Park(&e->impl_->idle_point_,
               [seen_epoch] { return ProgressEpoch() != seen_epoch; },
               /*now=*/-1, Engine::kNoTimer);
}

// ---- ActorGroup ----------------------------------------------------------

void ActorGroup::Spawn(std::string name, std::function<void()> fn) {
  Engine* e = Engine::Current();
  DFI_CHECK(e != nullptr) << "ActorGroup::Spawn outside an engine task: "
                          << name;
  ++live_;
  e->impl_->SpawnTask(std::move(name), std::move(fn), this);
}

void ActorGroup::Join() {
  while (live_ != 0) {
    Engine::Park(&done_, [this] { return live_ == 0; }, /*now=*/-1,
                 Engine::kNoTimer);
  }
}

}  // namespace dfi::exec
