#include "support/parallel.h"

#include <cstdlib>
#include <limits>
#include <string>

#include "support/util.h"

namespace radiomc {

unsigned hardware_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned jobs_from_env(unsigned fallback) {
  const char* env = std::getenv("RADIOMC_JOBS");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = parse_unsigned(
      env, "RADIOMC_JOBS", std::numeric_limits<unsigned>::max());
  return v == 0 ? hardware_jobs() : static_cast<unsigned>(v);
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads < 1 ? 1 : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_.wait(lock,
              [this] { return queue_head_ == queue_.size() && active_ == 0; });
  // Reclaim the drained prefix so a reused pool doesn't grow unboundedly.
  queue_.clear();
  queue_head_ = 0;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || queue_head_ < queue_.size(); });
    if (queue_head_ < queue_.size()) {
      std::function<void()> task = std::move(queue_[queue_head_]);
      ++queue_head_;
      ++active_;
      lock.unlock();
      task();
      lock.lock();
      --active_;
      if (queue_head_ == queue_.size() && active_ == 0)
        drain_.notify_all();
    } else if (stop_) {
      return;
    }
  }
}

}  // namespace radiomc
