#include "obs/prof/sampler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

// glibc keeps the Linux-specific per-thread notification field behind a
// union; the man page (timer_create(2)) blesses this spelling.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif

namespace swt::prof {

// ---------------------------------------------------------------------------
// SampleRing

SampleRing::SampleRing(std::size_t capacity) {
  std::size_t cap = 8;
  while (cap < capacity && cap < (std::size_t{1} << 20)) cap <<= 1;
  slots_.resize(cap);
  mask_ = cap - 1;
}

bool SampleRing::try_push(const std::uintptr_t* pcs, int depth) noexcept {
  if (depth <= 0) return false;
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Sample& s = slots_[static_cast<std::size_t>(head) & mask_];
  const int n = std::min(depth, kMaxFrames);
  for (int i = 0; i < n; ++i) s.pc[i] = pcs[i];
  s.depth = static_cast<std::uint16_t>(n);
  head_.store(head + 1, std::memory_order_release);
  return true;
}

std::size_t SampleRing::drain(std::vector<Sample>& out) {
  std::size_t n = 0;
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  while (tail < head) {
    out.push_back(slots_[static_cast<std::size_t>(tail) & mask_]);
    ++tail;
    ++n;
  }
  tail_.store(tail, std::memory_order_release);
  return n;
}

// ---------------------------------------------------------------------------
// Thread registry: a fixed arena of slots.  Slots (and their rings) are
// never deallocated, so a late signal can never touch freed memory; an
// exiting thread drains its own ring into the aggregate and frees its slot
// for the next registering thread.

namespace {

constexpr int kSlotFree = 0;
constexpr int kSlotActive = 1;

struct ThreadSlot {
  std::atomic<int> state{kSlotFree};
  pid_t tid = 0;
  pthread_t pth{};
  char name[32] = {};
  SampleRing* ring = nullptr;  // allocated on first use, never freed
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  timer_t timer{};
  bool timer_armed = false;
};

constexpr int kMaxSlots = 128;
ThreadSlot g_slots[kMaxSlots];
thread_local ThreadSlot* tl_slot = nullptr;

// Guards the slot registry and profiler start/stop transitions.
std::mutex& registry_mutex() {
  static std::mutex* m = new std::mutex;  // leaked: outlives all threads
  return *m;
}

std::atomic<bool> g_sampling{false};  // read by the signal handler
bool g_running = false;               // guarded by registry_mutex()
int g_hz = 97;

struct Aggregate {
  std::mutex mu;
  std::map<std::vector<std::uintptr_t>, std::uint64_t> stacks;
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
};

Aggregate& agg() {
  static Aggregate* a = new Aggregate;  // leaked: handler-adjacent state
  return *a;
}

// Collector wake-up machinery (separate mutex: the collector takes
// registry_mutex() while draining, so stop() must not hold it to signal).
std::mutex g_cv_mu;
std::condition_variable g_cv;
bool g_stop_collector = false;
std::thread g_collector;

// ---------------------------------------------------------------------------
// Signal handler: frame-pointer walk seeded from the interrupted context.

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SWT_PROF_NO_SANITIZE \
  __attribute__((no_sanitize("address", "thread", "undefined")))
#endif
#endif
#ifndef SWT_PROF_NO_SANITIZE
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SWT_PROF_NO_SANITIZE \
  __attribute__((no_sanitize_address)) __attribute__((no_sanitize_undefined))
#else
#define SWT_PROF_NO_SANITIZE
#endif
#endif

/// Walk saved frame pointers upward through [lo, hi).  Every dereference is
/// bounds- and alignment-checked first, so a corrupt or -fomit-frame-pointer
/// frame terminates the walk instead of faulting.
SWT_PROF_NO_SANITIZE
int walk_frames(std::uintptr_t pc, std::uintptr_t fp, std::uintptr_t lo,
                std::uintptr_t hi, std::uintptr_t* out, int max_frames) noexcept {
  int n = 0;
  if (pc != 0 && n < max_frames) out[n++] = pc;
  std::uintptr_t cur = fp;
  while (n < max_frames) {
    if (cur < lo || cur + 2 * sizeof(std::uintptr_t) > hi ||
        (cur & (sizeof(std::uintptr_t) - 1)) != 0)
      break;
    const std::uintptr_t* frame = reinterpret_cast<const std::uintptr_t*>(cur);
    const std::uintptr_t next_fp = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret < 4096) break;
    out[n++] = ret;
    if (next_fp <= cur) break;  // frames must strictly move toward the base
    cur = next_fp;
  }
  return n;
}

SWT_PROF_NO_SANITIZE
void sigprof_handler(int, siginfo_t*, void* uctx) {
  const int saved_errno = errno;
  ThreadSlot* slot = tl_slot;
  if (slot != nullptr && slot->ring != nullptr &&
      g_sampling.load(std::memory_order_relaxed)) {
    std::uintptr_t pc = 0, fp = 0, sp = 0;
    if (uctx != nullptr) {
      const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
      pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
      fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
      sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
      pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
      fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
      sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#endif
    }
    if (pc == 0) {
      pc = reinterpret_cast<std::uintptr_t>(
          __builtin_extract_return_addr(__builtin_return_address(0)));
      fp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    }
    const std::uintptr_t lo = sp != 0 ? sp : slot->stack_lo;
    std::uintptr_t pcs[SampleRing::kMaxFrames];
    const int depth =
        walk_frames(pc, fp, lo, slot->stack_hi, pcs, SampleRing::kMaxFrames);
    slot->ring->try_push(pcs, depth);
  }
  errno = saved_errno;
}

void install_handler_locked() {
  static bool installed = false;
  if (installed) return;
  struct sigaction sa {};
  sa.sa_sigaction = &sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  installed = true;
}

// ---------------------------------------------------------------------------
// Timer arming / disarming (registry_mutex() held).

bool arm_timer_locked(ThreadSlot* s, int hz, std::string* err) {
  if (s->timer_armed) return true;
  clockid_t clock{};
  if (const int rc = pthread_getcpuclockid(s->pth, &clock); rc != 0) {
    if (err) *err = std::string("pthread_getcpuclockid: ") + strerror(rc);
    return false;
  }
  struct sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = s->tid;
  if (timer_create(clock, &sev, &s->timer) != 0) {
    if (err) *err = std::string("timer_create: ") + strerror(errno);
    return false;
  }
  const long period_ns = 1000000000L / std::max(1, hz);
  itimerspec its{};
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(s->timer, 0, &its, nullptr) != 0) {
    if (err) *err = std::string("timer_settime: ") + strerror(errno);
    timer_delete(s->timer);
    return false;
  }
  s->timer_armed = true;
  return true;
}

void disarm_timer_locked(ThreadSlot* s) {
  if (!s->timer_armed) return;
  timer_delete(s->timer);
  s->timer_armed = false;
}

void register_current_thread_locked(const char* name) {
  if (tl_slot != nullptr) return;
  ThreadSlot* slot = nullptr;
  for (int i = 0; i < kMaxSlots; ++i) {
    if (g_slots[i].state.load(std::memory_order_relaxed) == kSlotFree) {
      slot = &g_slots[i];
      break;
    }
  }
  if (slot == nullptr) return;  // arena exhausted: thread stays unprofiled
  slot->tid = static_cast<pid_t>(syscall(SYS_gettid));
  slot->pth = pthread_self();
  snprintf(slot->name, sizeof(slot->name), "%s", name != nullptr ? name : "thread");
  if (slot->ring == nullptr) slot->ring = new SampleRing();
  slot->stack_lo = 0;
  slot->stack_hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      slot->stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
      slot->stack_hi = slot->stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  slot->timer_armed = false;
  slot->state.store(kSlotActive, std::memory_order_release);
  tl_slot = slot;
  if (g_running) arm_timer_locked(slot, g_hz, nullptr);
}

struct DrainCounts {
  std::uint64_t samples = 0;
  std::uint64_t drops = 0;
};

/// Move one slot's pending samples into the aggregate.  The caller holds
/// registry_mutex() and agg().mu.
void drain_slot_locked(ThreadSlot& s, std::vector<SampleRing::Sample>& buf,
                       DrainCounts& counts) {
  buf.clear();
  s.ring->drain(buf);
  const std::uint64_t drops = s.ring->take_dropped();
  for (const SampleRing::Sample& sample : buf) {
    std::vector<std::uintptr_t> key(sample.depth);
    for (int i = 0; i < sample.depth; ++i)
      key[static_cast<std::size_t>(i)] = sample.pc[sample.depth - 1 - i];
    ++agg().stacks[std::move(key)];
  }
  agg().total += buf.size();
  agg().dropped += drops;
  counts.samples += buf.size();
  counts.drops += drops;
}

void publish_counts(const DrainCounts& counts) {
  if (counts.samples > 0) {
    static Counter& samples = metrics().counter("prof.samples_total");
    samples.add(static_cast<std::int64_t>(counts.samples));
  }
  if (counts.drops > 0) {
    static Counter& drops = metrics().counter("prof.samples_dropped_total");
    drops.add(static_cast<std::int64_t>(counts.drops));
  }
}

/// Drain every registered thread's ring into the aggregate.
void drain_all() {
  std::vector<SampleRing::Sample> buf;
  int active = 0;
  DrainCounts counts;
  {
    std::scoped_lock lk(registry_mutex(), agg().mu);
    for (ThreadSlot& s : g_slots) {
      if (s.state.load(std::memory_order_acquire) != kSlotActive) continue;
      ++active;
      drain_slot_locked(s, buf, counts);
    }
  }
  publish_counts(counts);
  static Gauge& threads = metrics().gauge("prof.threads");
  threads.set(static_cast<double>(active));
}

void collector_main() {
  for (;;) {
    bool stop = false;
    {
      std::unique_lock lk(g_cv_mu);
      g_cv.wait_for(lk, std::chrono::milliseconds(200),
                    [] { return g_stop_collector; });
      stop = g_stop_collector;
    }
    drain_all();
    if (stop) break;
  }
}

// ---------------------------------------------------------------------------
// fork() safety: POSIX timers are not inherited by the child, but a child
// that re-entered the profiler (or ran atexit paths) must see a quiesced,
// consistent registry.  Locks are held across the fork so the child's
// memory snapshot is never mid-update.

void atfork_prepare() {
  registry_mutex().lock();
  agg().mu.lock();
}

void atfork_parent() {
  agg().mu.unlock();
  registry_mutex().unlock();
}

void atfork_child() {
  agg().mu.unlock();
  registry_mutex().unlock();
  g_sampling.store(false, std::memory_order_relaxed);
  g_running = false;
  g_stop_collector = false;
  for (ThreadSlot& s : g_slots) {
    s.timer_armed = false;  // timers were not inherited
    s.state.store(kSlotFree, std::memory_order_relaxed);
  }
  tl_slot = nullptr;
}

void install_atfork_once() {
  static bool installed = false;
  if (!installed) {
    pthread_atfork(&atfork_prepare, &atfork_parent, &atfork_child);
    installed = true;
  }
}

}  // namespace

std::uint64_t SampleRing::take_dropped() noexcept {
  return dropped_.exchange(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Public registration API

void register_current_thread(const char* name) {
  std::lock_guard lk(registry_mutex());
  register_current_thread_locked(name);
}

ScopedProfiledThread::ScopedProfiledThread(const char* name) {
  owned_ = (tl_slot == nullptr);
  register_current_thread(name);
}

ScopedProfiledThread::~ScopedProfiledThread() {
  if (!owned_) return;
  ThreadSlot* slot = tl_slot;
  if (slot == nullptr) return;
  tl_slot = nullptr;  // a stale in-flight signal now bails in the handler
  // Take the final drain here rather than leaving it to the collector: with
  // the profiler stopped there is no collector, and a slot left to it would
  // stay taken for good.
  DrainCounts counts;
  {
    std::scoped_lock lk(registry_mutex(), agg().mu);
    disarm_timer_locked(slot);
    std::vector<SampleRing::Sample> buf;
    drain_slot_locked(*slot, buf, counts);
    slot->state.store(kSlotFree, std::memory_order_release);
  }
  publish_counts(counts);
}

// ---------------------------------------------------------------------------
// CpuProfiler

CpuProfiler& CpuProfiler::global() {
  static CpuProfiler* p = new CpuProfiler;  // leaked: outlives worker threads
  return *p;
}

bool CpuProfiler::start(const ProfilerConfig& cfg) {
  {
    std::lock_guard lk(registry_mutex());
    if (g_running) {
      last_error_ = "profiler already running";
      return false;
    }
    install_atfork_once();
    install_handler_locked();
    hz_ = std::clamp(cfg.hz, 1, 1000);
    g_hz = hz_;
    register_current_thread_locked("caller");

    // Arm every registered thread.  The caller's own timer must succeed —
    // it is the canary for "sampling works at all on this system".
    std::string err;
    bool caller_ok = tl_slot == nullptr;  // arena exhausted: nothing to prove
    for (ThreadSlot& s : g_slots) {
      if (s.state.load(std::memory_order_acquire) != kSlotActive) continue;
      const bool ok = arm_timer_locked(&s, hz_, &err);
      if (&s == tl_slot) caller_ok = ok;
    }
    if (!caller_ok) {
      for (ThreadSlot& s : g_slots) disarm_timer_locked(&s);
      last_error_ = err.empty() ? "timer_create unavailable" : err;
      return false;
    }
    g_running = true;
    g_sampling.store(true, std::memory_order_release);
  }
  {
    std::lock_guard lk(g_cv_mu);
    g_stop_collector = false;
  }
  g_collector = std::thread(&collector_main);
  last_error_.clear();
  return true;
}

void CpuProfiler::stop() {
  {
    std::lock_guard lk(registry_mutex());
    if (!g_running) return;
    g_sampling.store(false, std::memory_order_release);
    for (ThreadSlot& s : g_slots) disarm_timer_locked(&s);
    g_running = false;
  }
  {
    std::lock_guard lk(g_cv_mu);
    g_stop_collector = true;
  }
  g_cv.notify_all();
  if (g_collector.joinable()) g_collector.join();
  drain_all();  // pick up anything pushed between the last sweep and disarm
}

bool CpuProfiler::running() const noexcept {
  return g_sampling.load(std::memory_order_acquire);
}

void CpuProfiler::reset() {
  drain_all();
  std::lock_guard lk(agg().mu);
  agg().stacks.clear();
  agg().total = 0;
  agg().dropped = 0;
}

StackProfile CpuProfiler::snapshot() {
  drain_all();
  StackProfile out;
  std::lock_guard lk(agg().mu);
  out.stacks = agg().stacks;
  out.total_samples = agg().total;
  out.dropped_samples = agg().dropped;
  return out;
}

// ---------------------------------------------------------------------------
// StackProfile arithmetic

StackProfile& StackProfile::subtract(const StackProfile& earlier) {
  for (const auto& [key, count] : earlier.stacks) {
    auto it = stacks.find(key);
    if (it == stacks.end()) continue;
    it->second = it->second > count ? it->second - count : 0;
    if (it->second == 0) stacks.erase(it);
  }
  total_samples = total_samples > earlier.total_samples
                      ? total_samples - earlier.total_samples
                      : 0;
  dropped_samples = dropped_samples > earlier.dropped_samples
                        ? dropped_samples - earlier.dropped_samples
                        : 0;
  return *this;
}

// ---------------------------------------------------------------------------
// Symbolization (offline, ordinary threads only)

namespace {

std::string hex_string(std::uintptr_t v) {
  char buf[2 + 2 * sizeof(std::uintptr_t) + 1];
  snprintf(buf, sizeof(buf), "0x%zx", static_cast<std::size_t>(v));
  return buf;
}

std::string sanitize_frame(std::string name) {
  for (char& c : name) {
    if (c == ';' || c == '\n' || c == '\r' || c == '\t') c = ':';
  }
  return name;
}

std::string symbolize_pc(std::uintptr_t pc) {
  static std::mutex mu;
  static auto* cache = new std::unordered_map<std::uintptr_t, std::string>;
  std::lock_guard lk(mu);
  if (auto it = cache->find(pc); it != cache->end()) return it->second;

  std::string name;
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
  } else if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
    const char* base = strrchr(info.dli_fname, '/');
    name = std::string(base != nullptr ? base + 1 : info.dli_fname) + "+" +
           hex_string(pc - reinterpret_cast<std::uintptr_t>(info.dli_fbase));
  } else {
    name = hex_string(pc);
  }
  name = sanitize_frame(std::move(name));
  (*cache)[pc] = name;
  return name;
}

}  // namespace

SymbolizedProfile symbolize(const StackProfile& raw) {
  SymbolizedProfile out;
  out.total_samples = raw.total_samples;
  out.dropped_samples = raw.dropped_samples;
  out.stacks.reserve(raw.stacks.size());
  for (const auto& [pcs, count] : raw.stacks) {
    std::vector<std::string> frames;
    frames.reserve(pcs.size());
    for (std::size_t i = 0; i < pcs.size(); ++i) {
      // Non-leaf frames hold return addresses: step back one byte so the
      // lookup lands inside the call instruction, not the next statement.
      const bool leaf = (i + 1 == pcs.size());
      frames.push_back(symbolize_pc(leaf ? pcs[i] : pcs[i] - 1));
    }
    out.stacks.emplace_back(std::move(frames), count);
  }
  return out;
}

std::string to_collapsed(const SymbolizedProfile& prof) {
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  lines.reserve(prof.stacks.size());
  for (const auto& [frames, count] : prof.stacks) {
    std::string joined;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i != 0) joined += ';';
      joined += frames[i];
    }
    lines.emplace_back(std::move(joined), count);
  }
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::string out;
  for (const auto& [stack, count] : lines) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

SymbolizedProfile parse_collapsed(std::istream& in) {
  SymbolizedProfile out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) continue;
    std::uint64_t count = 0;
    try {
      count = std::stoull(line.substr(space + 1));
    } catch (...) {
      continue;
    }
    std::vector<std::string> frames;
    std::size_t begin = 0;
    const std::string stack = line.substr(0, space);
    while (begin <= stack.size()) {
      const std::size_t semi = stack.find(';', begin);
      const std::size_t end = semi == std::string::npos ? stack.size() : semi;
      if (end > begin) frames.push_back(stack.substr(begin, end - begin));
      if (semi == std::string::npos) break;
      begin = semi + 1;
    }
    if (frames.empty()) continue;
    out.total_samples += count;
    out.stacks.emplace_back(std::move(frames), count);
  }
  return out;
}

void write_speedscope_json(std::ostream& out, const SymbolizedProfile& prof,
                           const std::string& name) {
  // Intern frames; each sample is a root-first frame-index stack with a
  // sample-count weight (speedscope "sampled" profile).
  std::unordered_map<std::string, std::size_t> frame_ids;
  std::vector<std::string> frames;
  std::vector<std::vector<std::size_t>> samples;
  std::vector<std::uint64_t> weights;
  std::uint64_t end_value = 0;
  for (const auto& [stack, count] : prof.stacks) {
    std::vector<std::size_t> ids;
    ids.reserve(stack.size());
    for (const std::string& frame : stack) {
      auto [it, inserted] = frame_ids.try_emplace(frame, frames.size());
      if (inserted) frames.push_back(frame);
      ids.push_back(it->second);
    }
    samples.push_back(std::move(ids));
    weights.push_back(count);
    end_value += count;
  }

  out << "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\","
      << "\"shared\":{\"frames\":[";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"name\":\"" << json_escape(frames[i]) << "\"}";
  }
  out << "]},\"profiles\":[{\"type\":\"sampled\",\"name\":\"" << json_escape(name)
      << "\",\"unit\":\"none\",\"startValue\":0,\"endValue\":" << end_value
      << ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i != 0) out << ',';
    out << '[';
    for (std::size_t j = 0; j < samples[i].size(); ++j) {
      if (j != 0) out << ',';
      out << samples[i][j];
    }
    out << ']';
  }
  out << "],\"weights\":[";
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (i != 0) out << ',';
    out << weights[i];
  }
  out << "]}],\"activeProfileIndex\":0,\"exporter\":\"swtnas\"}\n";
}

}  // namespace swt::prof
