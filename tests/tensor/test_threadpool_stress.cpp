#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tensor/threadpool.hpp"

/// Stress test of parallel-region ownership in the kernel pool: several
/// caller threads each run many tiny regions back to back, so workers that
/// straggle out of one region constantly race the next one. Every index of
/// every region must run exactly once. A straggler that claimed a chunk of
/// the next region with the previous region's task fields would run a chunk
/// twice or leave `parallel_for` waiting forever, so this binary carries a
/// ctest TIMEOUT: a hang fails instead of stalling the suite.

namespace orbit {
namespace {

TEST(ThreadPoolStress, ConcurrentCallersTinyRegionsRunEachIndexOnce) {
  constexpr int kCallers = 4;
  constexpr int kRegionsPerCaller = 300000;
  const int before = num_threads();
  set_num_threads(4);
  std::atomic<long> bad{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &bad] {
      for (int r = 0; r < kRegionsPerCaller; ++r) {
        const std::int64_t n = 2 + (r + c) % 3;  // 2..4 chunks of one index
        std::atomic<int> hits[4] = {0, 0, 0, 0};
        parallel_for(n, 1, [&](std::int64_t b, std::int64_t e) {
          if (b < 0 || e > n || b >= e) {
            bad.fetch_add(1);
            return;
          }
          for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
        for (std::int64_t i = 0; i < 4; ++i) {
          if (hits[i].load() != (i < n ? 1 : 0)) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  set_num_threads(before);
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace orbit
