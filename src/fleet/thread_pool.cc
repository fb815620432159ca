#include "src/fleet/thread_pool.h"

#include "src/base/check.h"

namespace psbox {

ThreadPool::ThreadPool(int threads) {
  PSBOX_CHECK_GE(threads, 1);
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (workers_.empty() || n <= 1) {
    for (int i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = static_cast<int>(workers_.size());
    ++pass_;
  }
  work_cv_.notify_all();
  RunIndices();
  // Every worker checks out of the pass, also one that found no index left,
  // so none can still hold |fn| once this returns.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return active_ == 0; });
  fn_ = nullptr;
}

void ThreadPool::RunIndices() noexcept {
  for (int i = next_.fetch_add(1, std::memory_order_relaxed); i < n_;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    (*fn_)(i);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen] { return stop_ || pass_ != seen; });
      if (stop_) {
        return;
      }
      seen = pass_;
    }
    RunIndices();
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = --active_ == 0;
    }
    if (last) {
      done_cv_.notify_one();
    }
  }
}

}  // namespace psbox
