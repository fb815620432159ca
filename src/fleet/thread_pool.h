// The fleet's one worker pool: the calling thread plus |threads| - 1 workers.
//
// Its one operation, ParallelFor(n, fn), runs fn(0) .. fn(n - 1) on those
// threads and returns only after every index has finished. The return
// synchronises-with every worker (mutex hand-off), so all state written
// inside fn is visible to the caller afterwards — the epoch barrier the
// fleet's determinism argument leans on. Idle workers block on a condition
// variable and never spin, and a one-thread pool runs every pass inline.

#ifndef SRC_FLEET_THREAD_POOL_H_
#define SRC_FLEET_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psbox {

class ThreadPool {
 public:
  // Spawns |threads| - 1 workers (|threads| >= 1) immediately.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs fn(i) exactly once for every i in [0, n), spread over the caller
  // and the workers, and blocks until all n calls have returned. Calls for
  // different indices may run concurrently, in any order.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  // Threads that run a pass: the caller plus the workers.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  void WorkerLoop();
  // Claims indices of the current pass until none are left. An exception
  // out of fn ends the program, on the caller as on a worker, so no worker
  // can outlive the fn it runs.
  void RunIndices() noexcept;

  std::mutex mu_;
  std::condition_variable work_cv_;  // a pass started, or shutdown
  std::condition_variable done_cv_;  // the last worker left the pass
  // The current pass. Written under mu_ before the workers are woken and
  // read by them after they wake, so each pass publishes them.
  const std::function<void(int)>* fn_ = nullptr;
  int n_ = 0;
  std::atomic<int> next_{0};  // next unclaimed index of the current pass
  uint64_t pass_ = 0;         // bumped once per pass; workers wait for it
  int active_ = 0;            // workers not yet done with the current pass
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace psbox

#endif  // SRC_FLEET_THREAD_POOL_H_
