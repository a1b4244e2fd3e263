#include "core/hybrid_stop.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "comm/world.hpp"
#include "core/hs_engine.hpp"
#include "model/vit.hpp"
#include "tensor/ops.hpp"
#include "train/optimizer.hpp"

namespace orbit::core {
namespace {

model::VitConfig tower_cfg() {
  model::VitConfig c = model::tiny_test();
  c.embed = 16;
  c.layers = 2;
  c.heads = 4;
  return c;
}

Tensor mse_grad(const Tensor& y, const Tensor& target) {
  return scale(sub(y, target), 2.0f / static_cast<float>(y.numel()));
}

/// (ddp, fsdp, tp) mesh factorizations to sweep; world = product.
using MeshParam = std::tuple<int, int, int>;

class HsForwardBackward : public ::testing::TestWithParam<MeshParam> {};

TEST_P(HsForwardBackward, MatchesSerialSingleStep) {
  auto [ddp, fsdp, tp] = GetParam();
  const int world = ddp * fsdp * tp;
  model::VitConfig cfg = tower_cfg();

  const std::int64_t b_local = 2, s = 5;
  const std::int64_t shards = ddp * fsdp;
  Rng drng(21);
  Tensor x_global = Tensor::randn({b_local * shards, s, cfg.embed}, drng);
  Tensor dy_global = Tensor::randn({b_local * shards, s, cfg.embed}, drng);

  // Serial forward/backward on the global batch.
  Rng srng(cfg.seed);
  model::TransformerTower serial("tower", cfg, srng);
  Tensor ref_y = serial.forward(x_global);
  Tensor ref_dx = serial.backward(dy_global);

  comm::run_spmd(world, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, ddp, fsdp, tp);
    HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{});
    const int shard = mesh.data_shard();
    Tensor x = slice(x_global, 0, shard * b_local, (shard + 1) * b_local);
    Tensor dy = slice(dy_global, 0, shard * b_local, (shard + 1) * b_local);

    Tensor y = tower.forward(x);
    Tensor ref_y_local =
        slice(ref_y, 0, shard * b_local, (shard + 1) * b_local);
    EXPECT_LT(max_abs_diff(y, ref_y_local), 1e-4f)
        << "fwd mismatch at mesh (" << ddp << "," << fsdp << "," << tp << ")";

    Tensor dx = tower.backward(dy);
    Tensor ref_dx_local =
        slice(ref_dx, 0, shard * b_local, (shard + 1) * b_local);
    EXPECT_LT(max_abs_diff(dx, ref_dx_local), 1e-4f)
        << "bwd mismatch at mesh (" << ddp << "," << fsdp << "," << tp << ")";
  });
}

INSTANTIATE_TEST_SUITE_P(
    MeshSweep, HsForwardBackward,
    ::testing::Values(MeshParam{1, 1, 1}, MeshParam{1, 2, 1},
                      MeshParam{1, 1, 2}, MeshParam{1, 2, 2},
                      MeshParam{2, 1, 1}, MeshParam{1, 4, 1},
                      MeshParam{1, 1, 4}, MeshParam{2, 2, 2},
                      MeshParam{1, 4, 2}, MeshParam{1, 2, 4}));

class HsTraining : public ::testing::TestWithParam<MeshParam> {};

TEST_P(HsTraining, TrajectoryMatchesSerial) {
  auto [ddp, fsdp, tp] = GetParam();
  const int world = ddp * fsdp * tp;
  model::VitConfig cfg = tower_cfg();
  const std::int64_t b_local = 1, s = 4;
  const std::int64_t shards = ddp * fsdp;

  Rng drng(31);
  Tensor x_global = Tensor::randn({b_local * shards, s, cfg.embed}, drng);
  Tensor t_global = Tensor::randn({b_local * shards, s, cfg.embed}, drng);
  Rng prng(32);
  Tensor probe = Tensor::randn({2, s, cfg.embed}, prng);

  // Serial reference trajectory.
  Rng srng(cfg.seed);
  model::TransformerTower serial("tower", cfg, srng);
  train::AdamWConfig acfg;
  acfg.lr = 2e-3f;
  train::AdamW ref_opt(serial.params(), acfg);
  const int kSteps = 4;
  for (int i = 0; i < kSteps; ++i) {
    for (model::Param* p : serial.params()) p->zero_grad();
    Tensor y = serial.forward(x_global);
    serial.backward(mse_grad(y, t_global));
    ref_opt.step();
  }
  Tensor ref_probe = serial.forward(probe);

  comm::run_spmd(world, [&](comm::RankContext& ctx) {
    HsEngineConfig ecfg;
    ecfg.ddp = ddp;
    ecfg.fsdp = fsdp;
    ecfg.tp = tp;
    ecfg.adamw = acfg;
    HsEngine engine(cfg, ctx, ecfg);
    const int shard = engine.mesh().data_shard();
    Tensor x = slice(x_global, 0, shard * b_local, (shard + 1) * b_local);
    Tensor t = slice(t_global, 0, shard * b_local, (shard + 1) * b_local);
    for (int i = 0; i < kSteps; ++i) engine.train_step_mse(x, t);
    Tensor out = engine.forward(probe);
    EXPECT_LT(max_abs_diff(out, ref_probe), 2e-3f)
        << "mesh (" << ddp << "," << fsdp << "," << tp << ") rank "
        << ctx.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(MeshSweep, HsTraining,
                         ::testing::Values(MeshParam{1, 1, 1},
                                           MeshParam{1, 2, 1},
                                           MeshParam{1, 1, 2},
                                           MeshParam{2, 1, 1},
                                           MeshParam{1, 2, 2},
                                           MeshParam{2, 2, 2},
                                           MeshParam{2, 2, 1},
                                           MeshParam{1, 4, 2}));

TEST(HsLinearPair, MatchesSerialMlpChain) {
  // The isolated Eqn. (2)/(3) check: y = GeLU(xA + a)B + b under every
  // (fsdp, tp) split of 4 ranks.
  model::VitConfig cfg = tower_cfg();
  Rng mrng(41);
  model::Mlp serial("m", cfg.embed, cfg.mlp_hidden(), mrng);
  Rng rng(42);
  Tensor x = Tensor::randn({3, cfg.embed}, rng);
  Tensor dy = Tensor::randn({3, cfg.embed}, rng);
  Tensor ref_y = serial.forward(x);
  Tensor ref_dx = serial.backward(dy);

  for (auto [fsdp, tp] :
       {std::pair{1, 4}, std::pair{4, 1}, std::pair{2, 2}}) {
    comm::run_spmd(fsdp * tp, [&, fsdp = fsdp, tp = tp](comm::RankContext& ctx) {
      HybridMesh mesh = HybridMesh::build(ctx, 1, fsdp, tp);
      HsOptions opts;
      MemoryCounter mem;
      HsLinearPair pair("m", serial.fc1().weight().value,
                        serial.fc1().bias().value,
                        serial.fc2().weight().value,
                        serial.fc2().bias().value,
                        HsLinearPair::Activation::kGelu, mesh.tp_group,
                        mesh.fsdp_group, &opts, &mem);
      // Same data on every rank (pure model parallel here).
      Tensor y = pair.forward(x);
      EXPECT_LT(max_abs_diff(y, ref_y), 1e-5f)
          << "fsdp=" << fsdp << " tp=" << tp;
      Tensor dx = pair.backward(dy);
      pair.wait_grads();
      EXPECT_LT(max_abs_diff(dx, ref_dx), 1e-5f)
          << "fsdp=" << fsdp << " tp=" << tp;
    });
  }
}

TEST(HsTower, PeakMemoryBeatsVanillaFsdpAndScalesWithTp) {
  // Fig. 5's mechanism: Hybrid-STOP materialises layer/T elements at a
  // time; more TP -> less peak per rank.
  model::VitConfig cfg = tower_cfg();
  Rng rng(51);
  Tensor x = Tensor::randn({1, 4, cfg.embed}, rng);
  Tensor dy = Tensor::randn({1, 4, cfg.embed}, rng);

  std::int64_t peak_tp1 = 0, peak_tp4 = 0;
  comm::run_spmd(4, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 4, 1);
    HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{});
    tower.forward(x);
    tower.backward(dy);
    if (ctx.rank() == 0) peak_tp1 = tower.memory().peak;
  });
  comm::run_spmd(4, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 1, 4);
    HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{});
    tower.forward(x);
    tower.backward(dy);
    if (ctx.rank() == 0) peak_tp4 = tower.memory().peak;
  });
  EXPECT_LT(peak_tp4, peak_tp1);
  // Roughly a 4x reduction (biases/LN skew it slightly).
  EXPECT_NEAR(static_cast<double>(peak_tp4),
              static_cast<double>(peak_tp1) / 4.0,
              static_cast<double>(peak_tp1) * 0.15);
}

TEST(HsTower, NoReshardKeepsParamsMaterializedLonger) {
  model::VitConfig cfg = tower_cfg();
  Rng rng(52);
  Tensor x = Tensor::randn({1, 4, cfg.embed}, rng);

  std::int64_t peak_reshard = 0, peak_keep = 0;
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 2, 1);
    HsOptions opts;
    opts.reshard_after_forward = true;
    HsTower a(cfg, mesh.tp_group, mesh.fsdp_group, opts);
    a.forward(x);
    if (ctx.rank() == 0) peak_reshard = a.memory().peak;

    opts.reshard_after_forward = false;
    HsTower b(cfg, mesh.tp_group, mesh.fsdp_group, opts);
    b.forward(x);
    if (ctx.rank() == 0) peak_keep = b.memory().peak;
  });
  EXPECT_LT(peak_reshard, peak_keep);
}

TEST(HsBlock, CheckpointingPreservesTraining) {
  model::VitConfig cfg = tower_cfg();
  Rng drng(53);
  Tensor x = Tensor::randn({2, 4, cfg.embed}, drng);
  Tensor t = Tensor::randn({2, 4, cfg.embed}, drng);

  std::vector<double> plain_losses, ckpt_losses;
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    HsEngineConfig e1;
    e1.fsdp = 2;
    HsEngine plain(cfg, ctx, e1);
    HsEngineConfig e2 = e1;
    e2.options.checkpoint_activations = true;
    HsEngine ckpt(cfg, ctx, e2);
    const int shard = plain.mesh().data_shard();
    Tensor xl = slice(x, 0, shard, shard + 1);
    Tensor tl = slice(t, 0, shard, shard + 1);
    for (int i = 0; i < 3; ++i) {
      const double l1 = plain.train_step_mse(xl, tl);
      const double l2 = ckpt.train_step_mse(xl, tl);
      if (ctx.rank() == 0) {
        plain_losses.push_back(l1);
        ckpt_losses.push_back(l2);
      }
    }
  });
  ASSERT_EQ(plain_losses.size(), ckpt_losses.size());
  for (std::size_t i = 0; i < plain_losses.size(); ++i) {
    EXPECT_NEAR(plain_losses[i], ckpt_losses[i],
                1e-6 + 1e-4 * plain_losses[i]);
  }
}

TEST(HsAttention, TpBeyondHeadsRejected) {
  model::VitConfig cfg = tower_cfg();  // 4 heads
  comm::run_spmd(8, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 1, 8);
    EXPECT_THROW(
        HsTower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{}),
        std::invalid_argument);
  });
}

TEST(HsEngine, MixedPrecisionTrainsAndStaysConsistent) {
  model::VitConfig cfg = tower_cfg();
  Rng drng(54);
  Tensor x = Tensor::randn({2, 4, cfg.embed}, drng);
  Tensor t = scale(x, 0.5f);

  comm::run_spmd(4, [&](comm::RankContext& ctx) {
    HsEngineConfig ecfg;
    ecfg.fsdp = 2;
    ecfg.tp = 2;
    ecfg.mixed_precision = true;
    ecfg.adamw.lr = 2e-3f;
    HsEngine engine(cfg, ctx, ecfg);
    const int shard = engine.mesh().data_shard();
    Tensor xl = slice(x, 0, shard, shard + 1);
    Tensor tl = slice(t, 0, shard, shard + 1);
    double first = 0, last = 0;
    for (int i = 0; i < 15; ++i) {
      last = engine.train_step_mse(xl, tl);
      if (i == 0) first = last;
    }
    EXPECT_LT(last, first);
  });
}

TEST(HsEngine, Bf16ActivationsStayFiniteAndClose) {
  model::VitConfig cfg = tower_cfg();
  Rng drng(55);
  Tensor x = Tensor::randn({2, 4, cfg.embed}, drng);

  Rng srng(cfg.seed);
  model::TransformerTower serial("tower", cfg, srng);
  Tensor ref_y = serial.forward(x);

  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    HybridMesh mesh = HybridMesh::build(ctx, 1, 1, 2);
    HsOptions opts;
    opts.bf16_activations = true;
    HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, opts);
    Tensor y = tower.forward(x);
    EXPECT_FALSE(has_nonfinite(y));
    // bf16 rounding error is bounded; outputs must stay near f32 results.
    EXPECT_LT(max_abs_diff(y, ref_y), 0.1f);
    EXPECT_GT(max_abs_diff(y, ref_y), 0.0f);  // rounding actually happened
  });
}

TEST(HsTower, ShardParamsPartitionTheSameTotalAcrossMeshes) {
  // Conservation: total sharded elements (summed over all ranks) must not
  // depend on the mesh factorization (up to FSDP padding).
  model::VitConfig cfg = tower_cfg();
  for (auto [fsdp, tp] :
       {std::pair{4, 1}, std::pair{2, 2}, std::pair{1, 4}}) {
    std::int64_t total = 0;
    comm::run_spmd(fsdp * tp, [&, fsdp = fsdp, tp = tp](comm::RankContext& ctx) {
      HybridMesh mesh = HybridMesh::build(ctx, 1, fsdp, tp);
      HsTower tower(cfg, mesh.tp_group, mesh.fsdp_group, HsOptions{});
      std::int64_t local = 0;
      for (model::Param* p : tower.shard_params()) local += p->numel();
      Tensor t = Tensor::full({1}, static_cast<float>(local));
      ctx.world_group().all_reduce(t, comm::ReduceOp::kSum);
      if (ctx.rank() == 0) total = static_cast<std::int64_t>(t[0]);
    });
    // Sharded fraction = all attention/MLP weights; same for every mesh.
    Rng srng(cfg.seed);
    model::TransformerTower ref("tower", cfg, srng);
    const std::int64_t full = ref.param_count();
    EXPECT_GT(total, full / 2);
    EXPECT_LE(total, full + 64 * cfg.layers);  // padding slack
    EXPECT_LT(total, full);                    // LN + biases are replicated
  }
}

}  // namespace
}  // namespace orbit::core
