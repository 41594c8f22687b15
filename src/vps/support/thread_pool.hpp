#pragma once

/// A fixed set of workers with one operation, parallel_for, for
/// embarrassingly parallel campaign work (one scenario replay per index).
///
/// Worker 0 is the calling thread; the pool starts worker_count() − 1
/// threads, so a one-worker pool starts none and runs every index on the
/// caller, in index order. Indices are handed out in ascending order from
/// one shared counter: a worker that finishes early takes the next index,
/// so each worker's indices ascend and uneven durations balance without
/// per-worker queues.
///
/// Which worker runs an index is up to the scheduler: callers that need
/// deterministic results slot each output by index and reduce in index
/// order (see fault::ParallelCampaign).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vps::support {

class ThreadPool {
 public:
  /// body(worker, index); `worker` is in [0, worker_count()).
  using Body = std::function<void(std::size_t worker, std::size_t index)>;

  /// `workers` counts the calling thread (0 means 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size() + 1; }

  /// Runs body(worker, i) for every i in [0, count) and returns once all
  /// of them finished. When iterations throw, the rest still run, and the
  /// first exception captured is rethrown here; the pool stays usable.
  /// One caller at a time, and `body` must not call parallel_for.
  void parallel_for(std::size_t count, const Body& body);

 private:
  /// Wakes every thread to exit and joins it.
  void stop() noexcept;
  void worker_loop(std::size_t worker);
  /// Takes indices from next_ and runs them until none is left.
  void drain(std::size_t worker);

  std::mutex mutex_;  // guards the job fields below and wakes the workers
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  const Body* body_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t job_ = 0;     // bumped per parallel_for call
  std::size_t running_ = 0;   // threads still in the current job
  std::exception_ptr error_;  // first exception of the current job
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};  // next index to hand out
  std::vector<std::thread> threads_;
};

}  // namespace vps::support
