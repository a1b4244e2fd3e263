#include "tensor/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace orbit {
namespace {

thread_local bool tl_in_pool = false;

/// Minimal fork-join pool: one shared task (a chunked range) at a time.
/// Kernels are coarse-grained, so contention on the single task slot is not a
/// bottleneck; simplicity and determinism of teardown matter more here.
///
/// Each parallel region's state lives on its caller's stack. A worker joins
/// the current region under `mu_`, claims chunks from that region only, and
/// leaves it under `mu_`; `run` returns once every chunk is claimed and no
/// worker is still inside. A worker late for region k therefore either
/// joins region k, or finds k gone and never sees its state.
class Pool {
 public:
  explicit Pool(int n) : stop_(false), epoch_(0) {
    n = std::max(1, n);
    threads_ = n;
    for (int i = 1; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  int size() const { return threads_; }

  void run(std::int64_t n, std::int64_t grain,
           const std::function<void(std::int64_t, std::int64_t)>& fn) {
    const std::int64_t chunks =
        std::min<std::int64_t>(threads_, (n + grain - 1) / grain);
    if (chunks <= 1) {
      fn(0, n);
      return;
    }
    std::unique_lock<std::mutex> rk(run_mu_);  // one parallel region at a time
    Region region{&fn, n, chunks};
    {
      std::lock_guard<std::mutex> lk(mu_);
      current_ = &region;
      ++epoch_;
    }
    cv_.notify_all();
    // parallel_for reaches here only from outside a region (nested calls
    // run inline); the caller is inside this one while it works its share.
    tl_in_pool = true;
    std::exception_ptr error;
    try {
      work(region);
    } catch (...) {
      // No worker may start another chunk, nor keep `region` after we leave.
      error = std::current_exception();
      region.next.store(region.chunks);
    }
    tl_in_pool = false;
    // Every chunk is claimed; wait for the workers still running one.
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [&region] { return region.workers == 0; });
      current_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  /// One parallel region. `next` is the chunk claim counter; `workers`
  /// (guarded by mu_) counts pool threads inside the region.
  struct Region {
    const std::function<void(std::int64_t, std::int64_t)>* fn;
    std::int64_t n;
    std::int64_t chunks;
    std::atomic<std::int64_t> next{0};
    int workers = 0;
  };

  void worker_loop() {
    tl_in_pool = true;
    std::uint64_t seen = 0;
    for (;;) {
      Region* region = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        region = current_;
        if (region == nullptr) continue;
        ++region->workers;
      }
      work(*region);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--region->workers == 0) done_cv_.notify_all();
      }
    }
  }

  static void work(Region& region) {
    const std::int64_t per = (region.n + region.chunks - 1) / region.chunks;
    for (;;) {
      const std::int64_t c = region.next.fetch_add(1);
      if (c >= region.chunks) break;
      const std::int64_t b = c * per;
      const std::int64_t e = std::min(region.n, b + per);
      if (b < e) (*region.fn)(b, e);
    }
  }

  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  int threads_;
  bool stop_;
  std::uint64_t epoch_;
  Region* current_ = nullptr;  ///< region open to joining workers (mu_)
};

std::unique_ptr<Pool>& pool_slot() {
  static std::unique_ptr<Pool> pool = std::make_unique<Pool>(
      static_cast<int>(std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace

int num_threads() { return pool_slot()->size(); }

void set_num_threads(int n) {
  if (tl_in_pool) {
    // Resizing tears down the pool whose worker invoked us; racing that
    // teardown deadlocks or crashes. Refuse loudly instead of racing.
    std::fprintf(stderr,
                 "orbit: set_num_threads(%d) called from inside a parallel "
                 "region; ignored\n",
                 n);
    return;
  }
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  pool_slot() = std::make_unique<Pool>(n);
}

bool in_parallel_region() { return tl_in_pool; }

void parallel_for(std::int64_t n, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  if (tl_in_pool || n <= grain || num_threads() == 1) {
    // Inline execution still counts as a parallel region so callers observe
    // identical semantics regardless of core count.
    const bool was = tl_in_pool;
    tl_in_pool = true;
    fn(0, n);
    tl_in_pool = was;
    return;
  }
  pool_slot()->run(n, grain, fn);
}

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  parallel_for(n, 1024, fn);
}

}  // namespace orbit
