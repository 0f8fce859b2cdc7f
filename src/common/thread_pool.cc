#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "testing/fault_injection.h"

namespace tabula {

namespace {
/// Set while a thread runs units of a parallel loop — a pool worker
/// running a task, or a caller draining its own RunStealing units. Nested
/// ParallelFor calls from such a thread execute inline: helpers they
/// submitted would queue behind the outer loop's drain tasks, so the
/// nested call would wait for the whole outer loop (or deadlock when
/// every worker is blocked on tasks that can never be scheduled).
thread_local bool t_inside_worker = false;

/// RAII flag; restores the previous value so the marker unwinds correctly
/// even if a task throws or a drain is itself nested.
struct InsideWorkerScope {
  InsideWorkerScope() : saved(t_inside_worker) { t_inside_worker = true; }
  ~InsideWorkerScope() { t_inside_worker = saved; }
  bool saved;
};
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Delay-only fault seam: lets tests stretch the window between task
    // dequeue and execution (refresh racing queries, deadline expiry
    // mid-dispatch). One relaxed load when nothing is armed.
    TABULA_FAULT_DELAY("threadpool.dispatch");
    InsideWorkerScope scope;
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> fut = packaged->get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.emplace([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  ParallelForChunked(n, [&fn](size_t, size_t b, size_t e) { fn(b, e); });
}

void ThreadPool::ParallelForChunked(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t chunks = std::min(n, num_threads());
  if (t_inside_worker) chunks = 1;  // nested call: run inline
  if (chunks <= 1) {
    fn(0, 0, n);
    return;
  }
  RunStealing(n, chunks, (n + chunks - 1) / chunks, fn);
}

void ThreadPool::ParallelForDeterministic(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  // Boundaries are a function of n only. Nesting and worker count change
  // only how chunks are scheduled, never how [0, n) is split.
  size_t chunks = DeterministicChunkCount(n);
  size_t chunk_size = (n + chunks - 1) / chunks;
  if (t_inside_worker || chunks <= 1 || num_threads() <= 1) {
    // Inline: same chunks, ascending order, current thread.
    for (size_t c = 0; c < chunks; ++c) {
      size_t begin = c * chunk_size;
      size_t end = std::min(n, begin + chunk_size);
      if (begin >= end) break;
      fn(c, begin, end);
    }
    return;
  }
  RunStealing(n, chunks, chunk_size, fn);
}

void ThreadPool::ParallelForGrains(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn,
    size_t grain_rows) {
  if (n == 0) return;
  size_t count;
  if (grain_rows == 0) {
    count = GrainCount(n);
    grain_rows = (n + count - 1) / count;
  } else {
    count = (n + grain_rows - 1) / grain_rows;
  }
  if (t_inside_worker || count <= 1 || num_threads() <= 1) {
    // Inline: same grains, ascending order, current thread.
    for (size_t g = 0; g < count; ++g) {
      size_t begin = g * grain_rows;
      size_t end = std::min(n, begin + grain_rows);
      if (begin >= end) break;
      fn(g, begin, end);
    }
    return;
  }
  RunStealing(n, count, grain_rows, fn);
}

void ThreadPool::RunStealing(
    size_t n, size_t count, size_t unit,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  // Work stealing via a shared claim cursor: which thread runs which unit
  // is scheduling-dependent, but the unit boundaries themselves are fixed
  // by (n, count, unit), so callers that keep per-unit state and merge it
  // in ascending unit order are unaffected by the stealing.
  std::atomic<size_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto drain = [&] {
    for (;;) {
      size_t g = cursor.fetch_add(1, std::memory_order_relaxed);
      if (g >= count) return;
      size_t begin = g * unit;
      size_t end = std::min(n, begin + unit);
      if (begin >= end) continue;
      // Capture instead of unwinding: every unit must run (sibling units
      // reference caller-frame state), and the drain loops in workers
      // must never leak an exception into the pool's task plumbing.
      try {
        fn(g, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };
  size_t helpers = std::min(num_threads(), count);
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) futures.push_back(Submit(drain));
  // The calling thread steals too: progress is guaranteed even when every
  // pool worker is stuck behind unrelated long-running tasks. Its units
  // run inline-nested like a worker's.
  {
    InsideWorkerScope scope;
    drain();
  }
  // drain() never throws, so the futures only signal completion; the
  // gets below are the barrier keeping `fn`, `cursor`, and `drain` alive
  // until the last worker leaves the loop.
  for (auto& f : futures) f.get();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

namespace {
std::atomic<ThreadPool*> g_pool_override{nullptr};
}  // namespace

ThreadPool& ThreadPool::Global() {
  ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire);
  if (override_pool != nullptr) return *override_pool;
  static ThreadPool pool([] {
    const char* env = std::getenv("TABULA_THREADS");
    if (env != nullptr) {
      long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<size_t>(v);
    }
    return static_cast<size_t>(0);
  }());
  return pool;
}

void ThreadPool::SetGlobalForTest(ThreadPool* pool) {
  g_pool_override.store(pool, std::memory_order_release);
}

}  // namespace tabula
