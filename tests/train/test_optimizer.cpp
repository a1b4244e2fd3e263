#include "train/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/bf16.hpp"
#include "tensor/ops.hpp"

namespace orbit::train {
namespace {

model::Param make_param(std::vector<float> v) {
  const auto n = static_cast<std::int64_t>(v.size());
  return model::Param("p", Tensor::from_vector(std::move(v), {n}));
}

TEST(AdamW, FirstStepMatchesHandComputation) {
  model::Param p = make_param({1.0f});
  p.grad[0] = 0.5f;
  AdamWConfig cfg;
  cfg.lr = 0.1f;
  AdamW opt({&p}, cfg);
  opt.step();
  // After bias correction, the first Adam step moves by ~lr * sign(grad).
  const double m_hat = 0.5;                       // m/(1-b1) = 0.05/0.1... == g
  const double v_hat = 0.25;                      // v/(1-b2) == g^2
  const double expect = 1.0 - 0.1 * m_hat / (std::sqrt(v_hat) + 1e-8);
  EXPECT_NEAR(p.value[0], expect, 1e-6);
}

TEST(AdamW, ConvergesOnQuadratic) {
  // Minimise f(x) = (x - 3)^2 by iterating grad = 2(x-3).
  model::Param p = make_param({0.0f});
  AdamWConfig cfg;
  cfg.lr = 0.1f;
  AdamW opt({&p}, cfg);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2);
}

TEST(AdamW, WeightDecayShrinksWeights) {
  model::Param p = make_param({10.0f});
  AdamWConfig cfg;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.1f;
  AdamW opt({&p}, cfg);
  for (int i = 0; i < 100; ++i) {
    p.grad[0] = 0.0f;  // no loss gradient: pure decay
    opt.step();
  }
  EXPECT_LT(p.value[0], 10.0f);
  EXPECT_GT(p.value[0], 0.0f);
}

TEST(AdamW, DecoupledDecayIndependentOfGradScale) {
  // AdamW (not Adam+L2): decay applies to weights directly, so two params
  // with different gradient magnitudes decay identically when lr is equal.
  model::Param a = make_param({5.0f});
  model::Param b = make_param({5.0f});
  AdamWConfig cfg;
  cfg.lr = 0.0f;  // isolate the decay term... lr multiplies decay too
  cfg.weight_decay = 0.1f;
  AdamW opt({&a, &b}, cfg);
  a.grad[0] = 100.0f;
  b.grad[0] = 0.001f;
  opt.step();
  EXPECT_FLOAT_EQ(a.value[0], b.value[0]);
}

TEST(AdamW, Bf16ModeRoundsWorkingWeights) {
  model::Param p = make_param({1.0f});
  AdamWConfig cfg;
  cfg.lr = 1e-4f;
  cfg.bf16_params = true;
  AdamW opt({&p}, cfg);
  for (int i = 0; i < 10; ++i) {
    p.grad[0] = 1.0f;
    opt.step();
    // Working weight is always exactly on the bf16 grid.
    EXPECT_EQ(p.value[0], bf16_round(p.value[0]));
  }
}

TEST(AdamW, Bf16MasterAccumulatesBelowGridResolution) {
  // Updates of ~1e-4 are below the bf16 ulp at 1.0 (2^-7 ≈ 0.0078): without
  // a master copy the weight would never move. The f32 master accumulates
  // them and the working weight eventually steps down a grid notch.
  model::Param p = make_param({1.0f});
  AdamWConfig cfg;
  cfg.lr = 5e-4f;
  cfg.bf16_params = true;
  AdamW opt({&p}, cfg);
  for (int i = 0; i < 20; ++i) {
    p.grad[0] = 1.0f;
    opt.step();
  }
  EXPECT_LT(p.value[0], 1.0f);
}

TEST(AdamW, ScaleGradsAndNonfiniteDetection) {
  model::Param p = make_param({1.0f, 2.0f});
  p.grad[0] = 4.0f;
  p.grad[1] = -8.0f;
  AdamW opt({&p}, AdamWConfig{});
  opt.scale_grads(0.25f);
  EXPECT_FLOAT_EQ(p.grad[0], 1.0f);
  EXPECT_FLOAT_EQ(p.grad[1], -2.0f);
  EXPECT_FALSE(opt.grads_nonfinite());
  p.grad[1] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(opt.grads_nonfinite());
}

TEST(ClipGradNorm, ClipsOnlyAboveThreshold) {
  model::Param p = make_param({0.0f, 0.0f});
  p.grad[0] = 3.0f;
  p.grad[1] = 4.0f;  // norm 5
  std::vector<model::Param*> ps = {&p};
  const double norm = clip_grad_norm(ps, 10.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_FLOAT_EQ(p.grad[0], 3.0f);  // untouched

  const double norm2 = clip_grad_norm(ps, 1.0);
  EXPECT_NEAR(norm2, 5.0, 1e-6);
  const double after = std::sqrt(sum_sq(p.grad));
  EXPECT_NEAR(after, 1.0, 1e-5);
}

TEST(ClipGradNorm, MultiParamGlobalNorm) {
  model::Param a = make_param({3.0f});
  model::Param b = make_param({4.0f});
  a.grad[0] = 3.0f;
  b.grad[0] = 4.0f;
  std::vector<model::Param*> ps = {&a, &b};
  clip_grad_norm(ps, 1.0);
  // Both scaled by the same global factor 1/5.
  EXPECT_NEAR(a.grad[0], 0.6f, 1e-5);
  EXPECT_NEAR(b.grad[0], 0.8f, 1e-5);
}

// finish_step's hook contract: the group reductions, not the local grads,
// decide whether to skip and how far to clip.

TEST(FinishStep, HookOverflowSkipsUpdateAndBacksOff) {
  model::Param p = make_param({1.0f});
  p.grad[0] = 8.0f;  // finite: only the vote reports an overflow
  AdamW opt({&p}, AdamWConfig{});
  GradScalerConfig scfg;
  scfg.init_scale = 8.0f;
  GradScaler scaler(scfg);
  bool seen_local = true;
  StepHooks hooks{"test.optimizer", "test.grad_clip", {}, {}};
  hooks.overflow_vote = [&](bool local) {
    seen_local = local;
    return true;  // some other rank overflowed
  };

  EXPECT_FALSE(finish_step(opt, &scaler, /*clip_norm=*/1.0, hooks));
  EXPECT_FALSE(seen_local);
  EXPECT_FLOAT_EQ(p.grad[0], 1.0f);  // unscaled by 1/8
  EXPECT_FLOAT_EQ(p.value[0], 1.0f);  // no update
  EXPECT_EQ(opt.steps_taken(), 0);
  EXPECT_FLOAT_EQ(scaler.scale(), 4.0f);
  EXPECT_EQ(scaler.skipped_steps(), 1);
}

TEST(FinishStep, ClipsByHookNormNotLocalNorm) {
  model::Param p = make_param({0.0f, 0.0f});
  p.grad[0] = 3.0f;
  p.grad[1] = 4.0f;  // local norm 5
  AdamW opt({&p}, AdamWConfig{});
  StepHooks hooks{"test.optimizer", "test.grad_clip", {}, {}};
  hooks.global_sq_norm = [] { return 100.0; };  // model-wide norm 10

  EXPECT_TRUE(finish_step(opt, /*scaler=*/nullptr, /*clip_norm=*/1.0, hooks));
  EXPECT_NEAR(p.grad[0], 0.3f, 1e-6);  // 3 / 10, not 3 / 5
  EXPECT_NEAR(p.grad[1], 0.4f, 1e-6);
  EXPECT_EQ(opt.steps_taken(), 1);
}

}  // namespace
}  // namespace orbit::train
