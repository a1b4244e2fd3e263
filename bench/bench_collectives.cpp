/// Micro-benchmarks for the simulated-cluster collectives (google-benchmark):
/// the substrate every distributed engine's data movement flows through.
///
/// Each collective is timed in a loop *inside one running world*: every
/// rank runs a few untimed warm-up ops and a barrier, then `kOpsPerLaunch`
/// timed ops; rank 0's wall time for that loop is the iteration's manual
/// time, and the `per_op` counter reports it per collective. Thread start-up
/// is therefore excluded; `BM_SpmdLaunch` measures it on its own.
///
/// Cases are `<op>/async:<0|1>/ranks:<p>/floats:<n>`: `async:0` is the
/// blocking call, `async:1` is `*_async(...).wait()`. `n` is the full
/// (unsharded) tensor: all_reduce reduces `n` floats, all_gather gathers
/// `n / p` per rank into `n`, reduce_scatter reduces `n` into `n / p`.
///
///   bench_collectives --benchmark_filter='BM_AllReduce/async:0/ranks:2/'

#include <benchmark/benchmark.h>

#include <chrono>

#include "gbench_main.hpp"

#include "comm/world.hpp"

namespace orbit::comm {
namespace {

constexpr int kOpsPerLaunch = 256;
constexpr int kWarmupOps = 16;

/// Per-rank buffers of one case. Zero-filled, so repeated sums stay finite.
struct Buffers {
  Tensor in;
  Tensor out;
};

using Collective = void (*)(const ProcessGroup& g, Buffers& b, bool async);

void time_collective(benchmark::State& state, Collective op, bool shard_in,
                     bool shard_out) {
  const bool async = state.range(0) != 0;
  const int world = static_cast<int>(state.range(1));
  const std::int64_t n = state.range(2);
  const std::int64_t shard = n / world;
  for (auto _ : state) {
    double seconds = 0.0;
    run_spmd(world, [&](RankContext& ctx) {
      const ProcessGroup g = ctx.world_group();
      Buffers b{Tensor::zeros({shard_in ? shard : n}),
                Tensor::zeros({shard_out ? shard : n})};
      for (int i = 0; i < kWarmupOps; ++i) op(g, b, async);
      g.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kOpsPerLaunch; ++i) op(g, b, async);
      const auto t1 = std::chrono::steady_clock::now();
      if (ctx.rank() == 0) {
        seconds = std::chrono::duration<double>(t1 - t0).count();
      }
      benchmark::DoNotOptimize(b.out.data());
    });
    state.SetIterationTime(seconds);
  }
  state.counters["per_op"] = benchmark::Counter(
      kOpsPerLaunch, benchmark::Counter::kIsIterationInvariantRate |
                         benchmark::Counter::kInvert);
}

void all_reduce_op(const ProcessGroup& g, Buffers& b, bool async) {
  if (async) {
    g.all_reduce_async(b.in).wait();
  } else {
    g.all_reduce(b.in);
  }
}

void all_gather_op(const ProcessGroup& g, Buffers& b, bool async) {
  if (async) {
    g.all_gather_async(b.in, b.out).wait();
  } else {
    g.all_gather(b.in, b.out);
  }
}

void reduce_scatter_op(const ProcessGroup& g, Buffers& b, bool async) {
  if (async) {
    g.reduce_scatter_async(b.in, b.out).wait();
  } else {
    g.reduce_scatter(b.in, b.out);
  }
}

void BM_AllReduce(benchmark::State& state) {
  time_collective(state, all_reduce_op, false, false);
}

void BM_AllGather(benchmark::State& state) {
  time_collective(state, all_gather_op, true, false);
}

void BM_ReduceScatter(benchmark::State& state) {
  time_collective(state, reduce_scatter_op, false, true);
}

void collective_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"async", "ranks", "floats"})
      ->ArgsProduct({{0, 1}, {2, 4, 8}, {16, 1024, 16384}})
      ->UseManualTime()
      ->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_AllReduce)->Apply(collective_args);
BENCHMARK(BM_AllGather)->Apply(collective_args);
BENCHMARK(BM_ReduceScatter)->Apply(collective_args);

void BM_SpmdLaunch(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_spmd(world, [](RankContext& ctx) { ctx.world_group().barrier(); });
  }
}
BENCHMARK(BM_SpmdLaunch)->Arg(2)->Arg(8);

}  // namespace
}  // namespace orbit::comm

ORBIT_GBENCH_MAIN();  // BENCHMARK_MAIN() + the repo-standard --json flag
