// Deterministic fork-join parallelism for the simulator's fan-out hot
// paths (per-service scans, per-page classification, per-onion
// descriptor-ID derivation, per-id ring lookups).
//
// Determinism contract: a parallel run is bit-identical to the serial
// (`threads == 1`) run because
//   (1) every task is a pure function of its *index* — callers derive
//       per-task RNG streams with `Rng::child(index)` (a const
//       derivation that never advances the parent), never from shared
//       mutable state, and
//   (2) results are committed in index order (ordered reduction):
//       `parallel_map` fills slot i of the output from task i, and any
//       serial fold the caller performs afterwards observes exactly the
//       serial order.
// Threads only decide *when* a task runs, never *what* it computes.
// See docs/concurrency.md for the full contract and how to add a new
// parallel call site.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace torsim::util {

/// Resolves a config `threads` knob: <= 0 means "one per hardware
/// thread" (`std::thread::hardware_concurrency()`, at least 1);
/// positive values are taken as-is. 1 selects the legacy serial path.
int resolve_threads(int threads);

/// True while the calling thread is executing inside a parallel region
/// (worker or participating caller). Nested parallel regions are
/// rejected — see parallel_for.
bool in_parallel_region();

/// Below this many tasks parallel_for runs serially regardless of the
/// `threads` knob — pool dispatch would cost more than the work it
/// spreads. Purely a scheduling decision: results are identical either
/// way.
inline constexpr std::size_t kMinParallelGrain = 32;

/// A fixed-size pool of background workers. `size()` counts the
/// calling thread too: a pool of size k keeps k-1 background threads
/// and the caller participates in every job, so `ThreadPool(1)` spawns
/// nothing and runs jobs inline.
class ThreadPool {
 public:
  /// `threads` is resolved via resolve_threads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Runs body(i) for every i in [0, n) across up to `max_threads`
  /// participants (<= 0 or > size(): the whole pool). Blocks until
  /// every index has completed. If tasks throw, every remaining chunk
  /// still runs and the exception of the *lowest* throwing index is
  /// rethrown — the same exception the serial loop would have thrown
  /// first (tasks are pure per-index, so the extra completed tasks are
  /// unobservable). Throws std::logic_error when called from inside a
  /// parallel region.
  void run(std::size_t n, int max_threads,
           const std::function<void(std::size_t)>& body);

  /// Process-wide pool used by the free parallel_for/parallel_map.
  /// Sized max(hardware_concurrency, 4) so that explicit `threads = 4`
  /// runs (the serial-equivalence goldens, the TSAN job) exercise real
  /// concurrency even inside single-core CI containers.
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Claims and runs chunks of the current job; returns when all
  /// indexes are claimed.
  void work(const std::function<void(std::size_t)>& body);

  int size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards all job state below
  std::condition_variable cv_;     // workers: a job opened / shutdown
  std::condition_variable done_cv_;  // caller: all participants left
  bool shutdown_ = false;
  std::uint64_t generation_ = 0;   // bumped per job; workers join once
  bool job_open_ = false;          // workers may still join
  int max_participants_ = 1;       // caller + joined workers cap
  int participants_ = 0;           // joined this job (incl. caller)
  int active_ = 0;                 // currently inside work()
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;
  std::size_t error_index_ = 0;

  std::mutex jobs_mu_;  // serialises concurrent top-level run() calls
};

/// Runs body(i) for i in [0, n). `threads` resolved via
/// resolve_threads(); 1 (or n < kMinParallelGrain) runs inline on the
/// caller with no pool involvement. The body must only read shared
/// state and write per-index slots — never mutate shared accumulators
/// (reduce serially over the per-index results instead). Calling a
/// parallel_for with threads != 1 from inside another parallel_for body
/// throws std::logic_error on every path, serial or parallel, so
/// nesting bugs cannot hide behind a `threads = 1` configuration.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& body);

/// Ordered-reduction map: returns {fn(0), fn(1), ..., fn(n-1)} with
/// slot i computed by task i, bit-identical to the serial
/// std::transform over indexes regardless of thread count or
/// scheduling. The result type must be default-constructible.
template <typename F>
auto parallel_map(std::size_t n, int threads, F&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<F&, std::size_t>>> {
  using T = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
  std::vector<T> out(n);
  parallel_for(n, threads, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace torsim::util
