#include <gtest/gtest.h>

#include <tuple>

#include "comm/world.hpp"
#include "core/hybrid_stop.hpp"
#include "core/mesh.hpp"
#include "model/block.hpp"
#include "tensor/matmul.hpp"
#include "tensor/nn_kernels.hpp"
#include "tensor/ops.hpp"
#include "testing/gradcheck.hpp"

/// Property-style sweeps of the Hybrid-STOP sharded chain over shapes,
/// activations, and mesh splits — the Eqn. (2)/(3) identities must hold for
/// every configuration, not just the transformer's.

namespace orbit::core {
namespace {

/// (rows, in, hidden, out, fsdp, tp, gelu)
using ChainParam = std::tuple<int, int, int, int, int, int, bool>;

class HsChainSweep : public ::testing::TestWithParam<ChainParam> {};

TEST_P(HsChainSweep, MatchesSerialChain) {
  auto [rows, in, hidden, out, fsdp, tp, use_gelu] = GetParam();
  Rng wrng(101);
  Tensor a_w = Tensor::randn({in, hidden}, wrng, 0.3f);
  Tensor a_b = Tensor::randn({hidden}, wrng, 0.1f);
  Tensor b_w = Tensor::randn({hidden, out}, wrng, 0.3f);
  Tensor b_b = Tensor::randn({out}, wrng, 0.1f);
  Rng xrng(102);
  Tensor x = Tensor::randn({rows, in}, xrng);
  Tensor dy = Tensor::randn({rows, out}, xrng);

  // Serial reference via plain tensor ops.
  Tensor pre = add_row_broadcast(matmul(x, a_w), a_b);
  Tensor h = use_gelu ? gelu(pre) : pre;
  Tensor ref_y = add_row_broadcast(matmul(h, b_w), b_b);
  // Serial dx.
  Tensor dh = matmul_nt(dy, b_w);
  Tensor dpre = use_gelu ? gelu_backward(pre, dh) : dh;
  Tensor ref_dx = matmul_nt(dpre, a_w);

  comm::run_spmd(fsdp * tp, [&, fsdp = fsdp, tp = tp,
                             use_gelu = use_gelu](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, fsdp, tp);
    HsOptions opts;
    MemoryCounter mem;
    HsLinearPair pair(
        "chain", a_w, a_b, b_w, b_b,
        use_gelu ? HsLinearPair::Activation::kGelu
                 : HsLinearPair::Activation::kNone,
        mesh.tp_group, mesh.fsdp_group, &opts, &mem);
    Tensor y = pair.forward(x);
    EXPECT_LT(max_abs_diff(y, ref_y), 1e-4f);
    Tensor dx = pair.backward(dy);
    pair.wait_grads();
    EXPECT_LT(max_abs_diff(dx, ref_dx), 1e-4f);
    // Memory accounting returns to zero after release.
    EXPECT_EQ(mem.current, 0);
    EXPECT_GT(mem.peak, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HsChainSweep,
    ::testing::Values(
        // Square-ish, both activations, different meshes.
        ChainParam{3, 8, 16, 8, 2, 2, true},
        ChainParam{3, 8, 16, 8, 2, 2, false},
        ChainParam{5, 12, 24, 12, 4, 1, true},
        ChainParam{5, 12, 24, 12, 1, 4, true},
        // Rectangular chains (out != in), tall and wide.
        ChainParam{2, 6, 36, 10, 2, 3, true},
        ChainParam{7, 20, 8, 4, 2, 2, false},
        // Single row, single shard edge cases.
        ChainParam{1, 4, 8, 4, 1, 1, true},
        ChainParam{1, 4, 8, 6, 2, 1, false}));

TEST(HsChainGradients, MatchFiniteDifferences) {
  // The distributed chain's analytic gradients vs central differences —
  // closing the loop between the comm layer and calculus.
  const int fsdp = 2, tp = 2;
  Rng wrng(103);
  Tensor a_w = Tensor::randn({6, 8}, wrng, 0.4f);
  Tensor a_b = Tensor::randn({8}, wrng, 0.1f);
  Tensor b_w = Tensor::randn({8, 6}, wrng, 0.4f);
  Tensor b_b = Tensor::randn({6}, wrng, 0.1f);
  Rng xrng(104);
  Tensor x = Tensor::randn({3, 6}, xrng);
  Tensor dy = Tensor::randn({3, 6}, xrng);

  Tensor dist_dx;
  comm::run_spmd(fsdp * tp, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, fsdp, tp);
    HsOptions opts;
    HsLinearPair pair("c", a_w, a_b, b_w, b_b,
                      HsLinearPair::Activation::kGelu, mesh.tp_group,
                      mesh.fsdp_group, &opts, nullptr);
    pair.forward(x);
    Tensor dx = pair.backward(dy);
    pair.wait_grads();
    if (ctx.rank() == 0) dist_dx = dx.clone();
  });

  auto serial_forward = [&]() {
    Tensor pre = add_row_broadcast(matmul(x, a_w), a_b);
    return add_row_broadcast(matmul(gelu(pre), b_w), b_b);
  };
  testing::check_grad(x, dy, serial_forward, dist_dx, 5e-3f);
}

TEST(HsOptionsBehaviour, ResharndingIdempotentAcrossSteps) {
  // Many forward/backward cycles with resharding must keep producing the
  // same outputs when weights are untouched (gather/release round-trips
  // are lossless).
  model::VitConfig cfg = model::tiny_test();
  cfg.embed = 16;
  cfg.layers = 2;
  cfg.heads = 4;
  Rng rng(105);
  Tensor x = Tensor::randn({1, 4, cfg.embed}, rng);
  comm::run_spmd(4, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 2, 2);
    HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{});
    Tensor first = tower.forward(x);
    for (int i = 0; i < 4; ++i) {
      Tensor again = tower.forward(x);
      ASSERT_EQ(max_abs_diff(again, first), 0.0f) << "cycle " << i;
    }
  });
}

TEST(HsMeshOddWorlds, NonPowerOfTwoFsdpGroups) {
  // FSDP group of 3: flat buffers pad to a non-trivial multiple; the
  // equivalence must be unaffected.
  model::VitConfig cfg = model::tiny_test();
  cfg.embed = 16;
  cfg.layers = 2;
  cfg.heads = 4;
  Rng srng(cfg.seed);
  model::TransformerTower serial("tower", cfg, srng);
  Rng rng(106);
  Tensor x = Tensor::randn({2, 4, cfg.embed}, rng);
  Tensor dy = Tensor::randn({2, 4, cfg.embed}, rng);
  Tensor ref_y = serial.forward(x);
  Tensor ref_dx = serial.backward(dy);

  comm::run_spmd(3, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 3, 1);
    HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{});
    EXPECT_LT(max_abs_diff(tower.forward(x), ref_y), 1e-4f);
    EXPECT_LT(max_abs_diff(tower.backward(dy), ref_dx), 1e-4f);
  });
}

TEST(HsMemoryCounter, SharedAcrossBlocksAndBounded) {
  model::VitConfig cfg = model::tiny_test();
  cfg.embed = 16;
  cfg.layers = 3;
  cfg.heads = 4;
  Rng rng(107);
  Tensor x = Tensor::randn({1, 4, cfg.embed}, rng);
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 2, 1);
    HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{});
    tower.forward(x);
    // With resharding, the peak is at most ~one block's parameters (QKV
    // set + O set + MLP sets of a single block), far below the tower total.
    Rng srng(cfg.seed);
    model::TransformerTower ref("tower", cfg, srng);
    EXPECT_LT(tower.memory().peak, ref.param_count() / 2);
    EXPECT_EQ(tower.memory().current, 0);
  });
}

}  // namespace
}  // namespace orbit::core
