#include <gtest/gtest.h>

#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace orbit::train {
namespace {

model::VitConfig micro() {
  model::VitConfig c = model::tiny_test();
  c.image_h = 8;
  c.image_w = 8;
  c.patch = 4;
  c.in_channels = 2;
  c.out_channels = 2;
  c.embed = 16;
  c.layers = 2;
  c.heads = 4;
  return c;
}

Batch make_batch(std::int64_t b, const model::VitConfig& cfg,
                 std::uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.inputs =
      Tensor::randn({b, cfg.in_channels, cfg.image_h, cfg.image_w}, rng);
  batch.targets = scale(batch.inputs, 0.5f);
  batch.lead_days = Tensor::full({b}, 1.0f);
  return batch;
}

Batch slice_batch(const Batch& g, std::int64_t begin, std::int64_t end) {
  Batch b;
  b.inputs = slice(g.inputs, 0, begin, end);
  b.targets = slice(g.targets, 0, begin, end);
  b.lead_days = slice(g.lead_days, 0, begin, end);
  return b;
}

TEST(Accumulation, EquivalentToLargeBatchStep) {
  const model::VitConfig cfg = micro();
  Batch big = make_batch(4, cfg, 7);

  model::OrbitModel m1(cfg), m2(cfg);
  TrainerConfig tc;
  tc.adamw.lr = 1e-3f;
  tc.clip_norm = 0.0;
  Trainer whole(m1, tc), accum(m2, tc);

  for (int step = 0; step < 3; ++step) {
    const double l1 = whole.train_step(big);
    const double l2 = accum.train_step_accumulated(
        {slice_batch(big, 0, 2), slice_batch(big, 2, 4)});
    EXPECT_NEAR(l1, l2, 1e-6 + 1e-4 * l1) << "step " << step;
  }
  // Parameters stay in lockstep, not just losses. (Tolerance: Adam's
  // 1/sqrt(v) normalisation amplifies f32 summation-order noise on
  // near-zero gradients.)
  auto p1 = m1.params();
  auto p2 = m2.params();
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_LT(max_abs_diff(p1[i]->value, p2[i]->value), 1e-3f)
        << p1[i]->name;
  }
}

TEST(Accumulation, UnequalMicroBatchesMatchConcatenation) {
  // Micro-batches weigh by their share of the samples, not 1/k: a 1+3
  // split of a batch of 4 must still step like the whole batch.
  const model::VitConfig cfg = micro();
  Batch big = make_batch(4, cfg, 17);

  model::OrbitModel m1(cfg), m2(cfg);
  TrainerConfig tc;
  tc.adamw.lr = 1e-3f;
  tc.clip_norm = 0.0;
  Trainer whole(m1, tc), accum(m2, tc);

  for (int step = 0; step < 3; ++step) {
    const double l1 = whole.train_step(big);
    const double l2 = accum.train_step_accumulated(
        {slice_batch(big, 0, 1), slice_batch(big, 1, 4)});
    EXPECT_NEAR(l1, l2, 1e-6 + 1e-4 * l1) << "step " << step;
  }
  auto p1 = m1.params();
  auto p2 = m2.params();
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_LT(max_abs_diff(p1[i]->value, p2[i]->value), 1e-3f)
        << p1[i]->name;
  }
}

TEST(Accumulation, SingleMicroBatchEqualsPlainStep) {
  const model::VitConfig cfg = micro();
  Batch b = make_batch(2, cfg, 9);
  model::OrbitModel m1(cfg), m2(cfg);
  TrainerConfig tc;
  tc.clip_norm = 0.0;
  Trainer plain(m1, tc), accum(m2, tc);
  const double l1 = plain.train_step(b);
  const double l2 = accum.train_step_accumulated({b});
  EXPECT_DOUBLE_EQ(l1, l2);
}

TEST(Accumulation, EmptyListThrows) {
  const model::VitConfig cfg = micro();
  model::OrbitModel m(cfg);
  Trainer t(m, TrainerConfig{});
  EXPECT_THROW(t.train_step_accumulated({}), std::invalid_argument);
}

TEST(Accumulation, CountsAsOneStep) {
  const model::VitConfig cfg = micro();
  model::OrbitModel m(cfg);
  Trainer t(m, TrainerConfig{});
  Batch b = make_batch(2, cfg, 11);
  t.train_step_accumulated({b, b, b});
  EXPECT_EQ(t.steps(), 1);
  EXPECT_EQ(t.optimizer().steps_taken(), 1);
  EXPECT_EQ(t.loss_history().size(), 1u);
}

TEST(Accumulation, WorksWithMixedPrecision) {
  const model::VitConfig cfg = micro();
  model::OrbitModel m(cfg);
  TrainerConfig tc;
  tc.mixed_precision = true;
  tc.adamw.lr = 3e-3f;
  Trainer t(m, tc);
  Batch b = make_batch(2, cfg, 13);
  double first = 0, last = 0;
  for (int i = 0; i < 10; ++i) {
    last = t.train_step_accumulated({slice_batch(b, 0, 1),
                                     slice_batch(b, 1, 2)});
    if (i == 0) first = last;
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace orbit::train
