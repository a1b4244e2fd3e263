#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "model/checkpoint_io.hpp"
#include "tensor/ops.hpp"

/// Serial trainer checkpoint/resume: a run resumed from a full
/// training-state checkpoint must be bitwise identical to one that never
/// stopped — params, Adam moments, step counter, LR-schedule phase,
/// grad-scaler state, and the attached data-RNG stream all restore exactly.

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

/// Draw a fresh batch from `rng` — consuming RNG state per step is what
/// makes the rng.data record load-bearing for bitwise resume.
Batch draw_batch(const model::VitConfig& cfg, Rng& rng) {
  Batch batch;
  batch.inputs =
      Tensor::randn({2, cfg.in_channels, cfg.image_h, cfg.image_w}, rng);
  batch.targets = scale(batch.inputs, 0.5f);
  batch.lead_days = Tensor::full({2}, 1.0f);
  return batch;
}

/// Full training state as records (via save_checkpoint), for bitwise
/// comparison of two trainers.
model::CheckpointData state_of(const Trainer& t, const std::string& path) {
  t.save_checkpoint(path);
  model::CheckpointData data = model::read_checkpoint(path);
  std::remove(path.c_str());
  return data;
}

void expect_bitwise_equal(const model::CheckpointData& a,
                          const model::CheckpointData& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const model::CheckpointRecord& rec : a.records()) {
    ASSERT_TRUE(b.contains(rec.name)) << rec.name;
    const model::CheckpointRecord& other = b.at(rec.name);
    EXPECT_EQ(rec.dtype, other.dtype) << rec.name;
    EXPECT_EQ(rec.shape, other.shape) << rec.name;
    ASSERT_EQ(rec.payload.size(), other.payload.size()) << rec.name;
    EXPECT_EQ(0, std::memcmp(rec.payload.data(), other.payload.data(),
                             rec.payload.size()))
        << "record " << rec.name << " differs";
  }
}

TrainerConfig full_config() {
  TrainerConfig tc;
  tc.adamw.lr = 3e-3f;
  tc.schedule = LrSchedule(3e-3f, 2, 12);  // resume must land mid-decay
  return tc;
}

void run_resume_bitwise(bool mixed_precision) {
  // ctest runs each test case as its own process, concurrently: the two
  // variants of this helper need disjoint scratch files.
  const std::string tag = mixed_precision ? "bf16" : "f32";
  const model::VitConfig cfg = micro();
  const std::string ckpt =
      ::testing::TempDir() + "/trainer_resume_" + tag + ".ckpt";
  const std::string scratch =
      ::testing::TempDir() + "/trainer_state_" + tag + ".bin";
  TrainerConfig tc = full_config();
  tc.mixed_precision = mixed_precision;

  // Reference: 6 uninterrupted steps.
  model::OrbitModel ref_model(cfg);
  Trainer ref(ref_model, tc);
  Rng ref_rng(11);
  ref.attach_rng(&ref_rng);
  for (int i = 0; i < 6; ++i) ref.train_step(draw_batch(cfg, ref_rng));

  // Interrupted: 3 steps, checkpoint, then the "process" dies.
  {
    model::OrbitModel m(cfg);
    Trainer t(m, tc);
    Rng rng(11);
    t.attach_rng(&rng);
    for (int i = 0; i < 3; ++i) t.train_step(draw_batch(cfg, rng));
    t.save_checkpoint(ckpt);
  }

  // Resumed: fresh model, fresh trainer, wrong-seeded RNG — everything
  // comes back from the file.
  model::OrbitModel m2(cfg);
  Trainer resumed(m2, tc);
  Rng rng2(999);
  resumed.attach_rng(&rng2);
  resumed.resume_from(ckpt);
  EXPECT_EQ(resumed.steps(), 3);
  for (int i = 0; i < 3; ++i) resumed.train_step(draw_batch(cfg, rng2));

  expect_bitwise_equal(state_of(ref, scratch), state_of(resumed, scratch));
  std::remove(ckpt.c_str());
}

TEST(TrainerCheckpoint, ResumedRunBitwiseIdenticalToUninterrupted) {
  run_resume_bitwise(/*mixed_precision=*/false);
}

TEST(TrainerCheckpoint, MixedPrecisionResumeRestoresMastersBitwise) {
  run_resume_bitwise(/*mixed_precision=*/true);
}

TEST(TrainerCheckpoint, PeriodicCheckpointingWritesConfiguredCadence) {
  const model::VitConfig cfg = micro();
  const std::string prefix = ::testing::TempDir() + "/trainer_periodic";
  const std::string path = prefix + ".ckpt";
  std::remove(path.c_str());

  model::OrbitModel m(cfg);
  TrainerConfig tc;
  tc.checkpoint_every = 2;
  tc.checkpoint_prefix = prefix;
  Trainer t(m, tc);
  Rng rng(5);
  Batch batch = draw_batch(cfg, rng);

  t.train_step(batch);  // step 1: no file yet
  std::ifstream probe(path, std::ios::binary);
  EXPECT_FALSE(static_cast<bool>(probe));
  for (int i = 0; i < 4; ++i) t.train_step(batch);  // steps 2..5

  // The last periodic save happened at step 4 (atomic replace of step 2's).
  const model::CheckpointData data = model::read_checkpoint(path);
  EXPECT_EQ(data.i64("train.step"), 4);

  model::OrbitModel m2(cfg);
  Trainer t2(m2, tc);
  t2.resume_from(path);
  EXPECT_EQ(t2.steps(), 4);
  std::remove(path.c_str());
}

TEST(TrainerCheckpoint, FailedResumeLeavesTrainerUntouched) {
  const model::VitConfig cfg = micro();
  const std::string ckpt = ::testing::TempDir() + "/trainer_corrupt.ckpt";
  const std::string scratch = ::testing::TempDir() + "/trainer_snap.bin";

  model::OrbitModel donor_model(cfg);
  Trainer donor(donor_model, full_config());
  Rng rng(21);
  donor.attach_rng(&rng);
  for (int i = 0; i < 2; ++i) donor.train_step(draw_batch(cfg, rng));
  donor.save_checkpoint(ckpt);

  model::OrbitModel m(cfg);
  Trainer t(m, full_config());
  Rng trng(31);
  t.attach_rng(&trng);
  t.train_step(draw_batch(cfg, trng));
  const model::CheckpointData before = state_of(t, scratch);

  // (1) Flipped byte: caught by the CRC before anything is staged.
  {
    std::ifstream is(ckpt, std::ios::binary);
    std::string image{std::istreambuf_iterator<char>(is),
                      std::istreambuf_iterator<char>()};
    image[image.size() / 2] =
        static_cast<char>(image[image.size() / 2] ^ 0x10);
    const std::string bad = ckpt + ".bad";
    std::ofstream os(bad, std::ios::binary);
    os.write(image.data(), static_cast<std::streamsize>(image.size()));
    os.close();
    EXPECT_THROW(t.resume_from(bad), std::runtime_error);
    expect_bitwise_equal(before, state_of(t, scratch));
    std::remove(bad.c_str());
  }

  // (2) Param-only file: resume demands optimizer state, weights-only
  // checkpoints are for inference. The trainer stays untouched.
  {
    const std::string weights = ckpt + ".weights";
    model::save_checkpoint(weights, donor_model.params());
    try {
      t.resume_from(weights);
      FAIL() << "param-only file accepted for resume";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("param-only"), std::string::npos)
          << e.what();
    }
    expect_bitwise_equal(before, state_of(t, scratch));
    std::remove(weights.c_str());
  }

  // (3) RNG attached but checkpoint saved without one.
  {
    model::OrbitModel plain_model(cfg);
    Trainer plain(plain_model, full_config());
    plain.train_step(draw_batch(cfg, rng));
    const std::string no_rng = ckpt + ".norng";
    plain.save_checkpoint(no_rng);
    EXPECT_THROW(t.resume_from(no_rng), std::runtime_error);
    expect_bitwise_equal(before, state_of(t, scratch));
    std::remove(no_rng.c_str());
  }

  // The intact file still resumes fine afterwards.
  EXPECT_NO_THROW(t.resume_from(ckpt));
  EXPECT_EQ(t.steps(), 2);
  std::remove(ckpt.c_str());
}

TEST(TrainerCheckpoint, DamagedRngRecordLeavesTrainerUntouched) {
  // A CRC-valid file whose rng.data is 8 bytes short: the RNG decode must
  // fail before params, optimizer state, LR, scaler or step are applied.
  const model::VitConfig cfg = micro();
  const std::string ckpt = ::testing::TempDir() + "/trainer_short_rng.ckpt";
  const std::string scratch = ::testing::TempDir() + "/trainer_rng_snap.bin";
  {
    model::OrbitModel donor_model(cfg);
    Trainer donor(donor_model, full_config());
    Rng rng(41);
    donor.attach_rng(&rng);
    for (int i = 0; i < 3; ++i) donor.train_step(draw_batch(cfg, rng));
    donor.save_checkpoint(ckpt);
  }
  const model::CheckpointData saved = model::read_checkpoint(ckpt);
  model::CheckpointData damaged;
  for (model::CheckpointRecord rec : saved.records()) {
    if (rec.name == "rng.data") rec.payload.resize(rec.payload.size() - 8);
    damaged.add_record(std::move(rec));
  }
  model::write_checkpoint(ckpt, damaged);

  model::OrbitModel m(cfg);
  Trainer t(m, full_config());
  Rng trng(43);
  t.attach_rng(&trng);
  t.train_step(draw_batch(cfg, trng));
  const model::CheckpointData before = state_of(t, scratch);
  EXPECT_THROW(t.resume_from(ckpt), std::runtime_error);
  EXPECT_EQ(t.steps(), 1);
  expect_bitwise_equal(before, state_of(t, scratch));
  std::remove(ckpt.c_str());
}

TEST(TrainerCheckpoint, ResumeClearsLossHistory) {
  const model::VitConfig cfg = micro();
  const std::string ckpt = ::testing::TempDir() + "/trainer_hist.ckpt";
  model::OrbitModel m(cfg);
  Trainer t(m, TrainerConfig{});
  Rng rng(8);
  for (int i = 0; i < 3; ++i) t.train_step(draw_batch(cfg, rng));
  t.save_checkpoint(ckpt);
  t.resume_from(ckpt);
  EXPECT_EQ(t.steps(), 3);
  EXPECT_TRUE(t.loss_history().empty());
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace orbit::train
