#include "vps/support/thread_pool.hpp"

#include <utility>

namespace vps::support {

ThreadPool::ThreadPool(std::size_t workers) {
  try {
    for (std::size_t w = 1; w < workers; ++w) threads_.emplace_back([this, w] { worker_loop(w); });
  } catch (...) {
    stop();  // a started thread that is destroyed unjoined terminates the program
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::drain(std::size_t worker) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < count_;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*body_)(worker, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_cv_.wait(lock, [&] { return stop_ || job_ != seen; });
      if (stop_) return;
      seen = job_;
    }
    drain(worker);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t count, const Body& body) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    running_ = threads_.size();
    ++job_;
  }
  job_cv_.notify_all();
  drain(0);
  std::unique_lock<std::mutex> lock(mutex_);
  // Every thread takes part in every job, so none can still read body_ or
  // count_ once running_ is back to zero.
  done_cv_.wait(lock, [this] { return running_ == 0; });
  body_ = nullptr;
  if (std::exception_ptr error = std::exchange(error_, nullptr)) std::rethrow_exception(error);
}

}  // namespace vps::support
