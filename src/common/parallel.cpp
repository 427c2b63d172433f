#include "src/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/kernels.hpp"
#include "src/obs/obs.hpp"

namespace lore {
namespace {

/// The engine's instruments, resolved on first use: parallel_for runs per
/// campaign chunk and submit per strand, so a registry lookup by name on each
/// call would take the registry mutex on the hot path.
obs::Counter& trials_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("parallel.trials");
  return c;
}
obs::Counter& trials_completed_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("parallel.trials_completed");
  return c;
}
obs::Counter& claims_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("parallel.claims");
  return c;
}
obs::Counter& chunks_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("parallel.chunks");
  return c;
}
obs::Counter& suppressed_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("pool.suppressed_exceptions");
  return c;
}
obs::Gauge& threads_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("parallel.threads");
  return g;
}
obs::Histogram& latency_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram("parallel.trial_latency_us");
  return h;
}
obs::Histogram& queue_depth_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "parallel.queue_depth", obs::Histogram::linear_bounds(0.0, 64.0, 33));
  return h;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial_index) {
  // splitmix64 finalizer — a bijection, so distinct trial indices under one
  // base seed always get distinct, decorrelated seeds. The implementation
  // lives in kernels.hpp so the batched seed kernel (and its SIMD variant)
  // share the exact same definition.
  return kernels::scalar::trial_seed_at(base_seed, trial_index);
}

unsigned resolve_threads(unsigned threads, std::size_t n) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (n < threads) threads = static_cast<unsigned>(std::max<std::size_t>(1, n));
  return threads;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = resolve_threads(threads, ~std::size_t{0});
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  std::size_t depth;
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(job));
    depth = ++pending_;
  }
  work_cv_.notify_one();
  // Queue pressure at submit time: how many jobs were queued or running when
  // this one arrived.
  if (obs::kCompiledIn && obs::enabled())
    queue_depth_histogram().observe(static_cast<double>(depth));
}

void ThreadPool::wait() {
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    auto error = std::exchange(first_error_, nullptr);
    const std::size_t suppressed = std::exchange(suppressed_errors_, 0);
    lock.unlock();
    if (suppressed == 0) std::rethrow_exception(error);
    // Later failures in the batch must not vanish: tally them and carry the
    // count in the rethrown message so callers see the blast radius.
    if (obs::kCompiledIn && obs::enabled()) suppressed_counter().add(suppressed);
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string(e.what()) + " (+" +
                               std::to_string(suppressed) +
                               " suppressed job exception(s))");
    }
    // Non-std exceptions propagate as-is from the rethrow above.
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      job();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      if (error) {
        if (!first_error_) first_error_ = error;
        else ++suppressed_errors_;
      }
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const unsigned team = resolve_threads(threads, n);

  // Engine instrumentation: trial count and team size are deterministic;
  // the per-trial latency histogram is wall-clock and therefore not part of
  // the determinism contract. Trials can be sub-microsecond, so latency is
  // sampled — every 16th trial by index (schedule-independent) — keeping the
  // common-path cost of an instrumented campaign to one branch per trial.
  // Each strand keeps its samples and adds them to the shared histogram once
  // when it ends, so no two workers write its cache lines trial by trial.
  constexpr std::size_t kLatencySampleStride = 16;
  obs::Histogram* latency = nullptr;
  if (obs::kCompiledIn && obs::enabled()) {
    trials_counter().add(n);
    threads_gauge().set(static_cast<double>(team));
    latency = &latency_histogram();
  }
  const auto run_range = [&](std::size_t begin, std::size_t end,
                             std::vector<double>& samples) {
    for (std::size_t i = begin; i < end; ++i) {
      if (latency && i % kLatencySampleStride == 0) {
        const double start = obs::TraceRecorder::now_us();
        fn(i);
        samples.push_back(obs::TraceRecorder::now_us() - start);
      } else {
        fn(i);
      }
    }
  };

  if (team <= 1) {
    std::vector<double> samples;
    run_range(0, n, samples);
    if (latency) latency->observe_all(samples);
    return;
  }
  // One strand per worker; trials are claimed from a shared cursor so uneven
  // trial costs balance across the team. Claims take `claim` indices at a
  // time: one-at-a-time claiming serialized sub-microsecond trial bodies on
  // the cursor's cache line (the old ~1.4x-at-8-threads ceiling), while a
  // bounded claim size keeps tail imbalance to at most `claim - 1` trials
  // per worker. Correctness never depends on who runs which trial — results
  // are keyed by index alone.
  const std::size_t claim =
      std::clamp<std::size_t>(n / (static_cast<std::size_t>(team) * 8), 1, 64);
  obs::Counter* claims = nullptr;
  if (obs::kCompiledIn && obs::enabled()) claims = &claims_counter();
  std::atomic<std::size_t> cursor{0};
  ThreadPool pool(team);
  for (unsigned w = 0; w < team; ++w) {
    pool.submit([&] {
      std::size_t my_claims = 0;
      std::vector<double> samples;
      for (;;) {
        const std::size_t begin = cursor.fetch_add(claim, std::memory_order_relaxed);
        if (begin >= n) break;
        ++my_claims;
        run_range(begin, std::min(n, begin + claim), samples);
      }
      if (claims && my_claims) claims->add(my_claims);
      if (latency) latency->observe_all(samples);
    });
  }
  pool.wait();
}

void parallel_for_chunks(std::size_t n, unsigned threads, std::size_t chunk,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  const unsigned team = resolve_threads(threads, num_chunks);

  obs::Counter* chunks = nullptr;
  if (obs::kCompiledIn && obs::enabled()) {
    trials_counter().add(n);
    threads_gauge().set(static_cast<double>(team));
    chunks = &chunks_counter();
  }

  if (team <= 1) {
    for (std::size_t begin = 0; begin < n; begin += chunk)
      fn(begin, std::min(n, begin + chunk));
    if (chunks) chunks->add(num_chunks);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  ThreadPool pool(team);
  for (unsigned w = 0; w < team; ++w) {
    pool.submit([&] {
      std::size_t my_chunks = 0;
      for (;;) {
        const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) break;
        ++my_chunks;
        fn(begin, std::min(n, begin + chunk));
      }
      if (chunks && my_chunks) chunks->add(my_chunks);
    });
  }
  pool.wait();
}

void parallel_for_trials(std::size_t n, std::uint64_t base_seed, unsigned threads,
                         const std::function<void(std::size_t, Rng&)>& fn) {
  // Per-trial updates of the completion counter are lock-free.
  obs::Counter* completed = nullptr;
  if (obs::kCompiledIn && obs::enabled()) completed = &trials_completed_counter();
  parallel_for(n, threads, [&](std::size_t i) {
    Rng rng(trial_seed(base_seed, i));
    fn(i, rng);
    if (completed) completed->add(1);
    LORE_OBS_EVENT(obs::EventKind::kTrialCompleted, i, 0.0);
  });
}

}  // namespace lore
