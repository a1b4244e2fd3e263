#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/hs_checkpoint.hpp"
#include "core/reshard.hpp"
#include "env/env.hpp"
#include "tensor/ops.hpp"

/// The sharded-generation format module on hostile input: the one
/// mesh-size rule shared by `parse_mesh_shape` and the sidecar reader, the
/// `.latest` pointer's strictness, digit runs in file names too long for
/// int64, the rank-file check as `ckpt_inspect` reports it, and the load
/// transaction's untouched-on-failure contract for a damaged RNG record.

namespace orbit::core {
namespace {

namespace fs = std::filesystem;

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

train::Batch draw_batch(const model::VitConfig& cfg, Rng& rng) {
  train::Batch b;
  b.inputs = Tensor::randn({2, cfg.in_channels, cfg.image_h, cfg.image_w}, rng);
  b.targets = scale(b.inputs, 0.5f);
  b.lead_days = Tensor::full({2}, 1.0f);
  return b;
}

DistributedTrainerConfig fsdp2() {
  DistributedTrainerConfig dtc;
  dtc.engine.fsdp = 2;
  return dtc;
}

/// Delete every on-disk artifact whose name starts with `prefix`'s stem.
void cleanup(const std::string& prefix) {
  const fs::path p(prefix);
  const std::string stem = p.filename().string();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    if (entry.path().filename().string().rfind(stem, 0) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

int run_cli(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

/// Train `steps` steps on a 1x2x1 mesh (RNG attached) and save `prefix`.
void save_generation(const std::string& prefix, int steps) {
  const model::VitConfig cfg = micro();
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, fsdp2());
    Rng rng(100 + static_cast<std::uint64_t>(m.data_shard()));
    m.attach_rng(&rng);
    for (int i = 0; i < steps; ++i) m.train_step(draw_batch(cfg, rng));
    save_sharded_checkpoint(prefix, m);
  });
}

TEST(CkptFormat, MeshSizeRuleBoundsTheWorldNotJustEachFactor) {
  EXPECT_EQ(reshard::parse_mesh_shape("1048576x1x1").world(), 1 << 20);
  for (const char* bad : {"1048576x1048576x1", "1048576x2x1", "1024x1024x2",
                          "1048577x1x1", "99999999999999999999x1x1"}) {
    EXPECT_THROW(reshard::parse_mesh_shape(bad), std::invalid_argument)
        << "\"" << bad << "\"";
  }
  ::setenv("ORBIT_ELASTIC_SHAPES", "2x2x1,1048576x1048576x1", 1);
  EXPECT_THROW(reshard::elastic_shapes_from_env(), env::EnvError);
  ::unsetenv("ORBIT_ELASTIC_SHAPES");
}

TEST(CkptFormat, SidecarWithOutOfRangeMeshIsCorrupt) {
  const std::string meta = ::testing::TempDir() + "/fmt_huge_mesh.meta";
  const std::string tail = "\ntp 1\nstep 4\nmasters 0\nrng 0\nsets 0\n"
                           "replicated 0\n";
  // 4294967297 narrows to 1 through a 32-bit cast; 2e9 would make the
  // inspector walk two billion ranks.
  for (const char* ddp : {"4294967297", "2000000000", "1048576"}) {
    spew(meta, std::string("orbit-sharded-checkpoint v3\nddp ") + ddp +
                   "\nfsdp 2" + tail);
    EXPECT_THROW(reshard::read_manifest(meta),
                 reshard::CheckpointCorruptionError)
        << ddp;
  }
  spew(meta, "orbit-sharded-checkpoint v2\nddp 4294967297\nfsdp 1\ntp 1\n"
             "step 4\n");
  EXPECT_THROW(reshard::read_sidecar(meta), reshard::CheckpointCorruptionError);
  // A tensor too large for the shard arithmetic is corrupt, not overflow.
  spew(meta, "orbit-sharded-checkpoint v3\nddp 1\nfsdp 1\ntp 1\nstep 4\n"
             "masters 0\nrng 0\nsets 0\nreplicated 1\n"
             "param w 2 1099511627776 1099511627776\n");
  EXPECT_THROW(reshard::read_manifest(meta),
               reshard::CheckpointCorruptionError);
  std::remove(meta.c_str());
}

TEST(CkptFormat, InspectorRejectsAnOutOfRangeMeshAtOnce) {
  const std::string prefix = ::testing::TempDir() + "/fmt_inspect_huge";
  spew(prefix + ".meta",
       "orbit-sharded-checkpoint v3\nddp 2000000000\nfsdp 1\ntp 1\nstep 4\n"
       "masters 0\nrng 0\nsets 0\nreplicated 0\n");
  EXPECT_EQ(run_cli(std::string(ORBIT_CKPT_INSPECT_BIN) + " --prefix " +
                    prefix + " --verify 1 >/dev/null 2>&1"),
            1);
  spew(prefix + ".meta",
       "orbit-sharded-checkpoint v3\nddp 4294967297\nfsdp 1\ntp 1\nstep 4\n"
       "masters 0\nrng 0\nsets 0\nreplicated 0\n");
  EXPECT_EQ(run_cli(std::string(ORBIT_CKPT_INSPECT_BIN) + " --prefix " +
                    prefix + " >/dev/null 2>&1"),
            1);
  cleanup(prefix);
}

TEST(CkptFormat, NegativeLatestPointerIsCorrupt) {
  const std::string prefix = ::testing::TempDir() + "/fmt_negative_latest";
  cleanup(prefix);
  spew(prefix + ".latest", "step -5\n");
  EXPECT_THROW(latest_checkpoint_step(prefix),
               reshard::CheckpointCorruptionError);
  // The supervised-restart entry point must not silently start from
  // scratch on a corrupt pointer.
  const model::VitConfig cfg = micro();
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedTrainerConfig dtc = fsdp2();
    dtc.checkpoint_prefix = prefix;
    DistributedOrbitModel m(cfg, ctx, dtc);
    EXPECT_THROW(m.resume_latest(), std::runtime_error);
    EXPECT_EQ(m.step(), 0);
  });
  cleanup(prefix);
}

TEST(CkptFormat, OverlongDigitRunsInFileNamesAreIgnored) {
  const std::string prefix = ::testing::TempDir() + "/fmt_digits";
  cleanup(prefix);
  const std::string stray = prefix + ".step99999999999999999999.meta";
  for (int step : {2, 4, 6}) {
    const std::string gen = prefix + ".step" + std::to_string(step);
    spew(gen + ".meta", "orbit-sharded-checkpoint v2\nddp 1\nfsdp 1\ntp 1\n"
                        "step " + std::to_string(step) + "\n");
    spew(gen + ".rank0.bin", "fake");
  }
  spew(stray, "stray");
  const std::string stray_rank = prefix + ".step6.rank99999999999999999999.bin";
  spew(stray_rank, "stray");
  spew(prefix + ".latest", "step 6\n");

  EXPECT_EQ(list_checkpoint_steps(prefix),
            (std::vector<std::int64_t>{2, 4, 6}));
  EXPECT_EQ(prune_checkpoints(prefix, 1), 2);
  EXPECT_EQ(list_checkpoint_steps(prefix), (std::vector<std::int64_t>{6}));
  EXPECT_TRUE(fs::exists(stray));
  EXPECT_TRUE(fs::exists(stray_rank));
  EXPECT_TRUE(fs::exists(prefix + ".step6.rank0.bin"));
  EXPECT_EQ(newest_intact_step(prefix), 6);
  cleanup(prefix);
}

TEST(CkptFormat, InspectorReportsTheLoadersRankFileCheck) {
  const std::string prefix = ::testing::TempDir() + "/fmt_inspect_torn";
  cleanup(prefix);
  save_generation(prefix, 2);
  std::string text = slurp(prefix + ".meta");
  const std::size_t pos = text.find("step 2");
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, 6, "step 3");
  spew(prefix + ".meta", text);

  const std::string out = prefix + ".out";
  EXPECT_EQ(run_cli(std::string(ORBIT_CKPT_INSPECT_BIN) + " --prefix " +
                    prefix + " --verify 1 > " + out),
            1);
  const std::string report = slurp(out);
  EXPECT_NE(report.find("torn generation"), std::string::npos) << report;
  EXPECT_NE(report.find("verification FAILED"), std::string::npos) << report;

  // The same-mesh loader rejects the generation with the same check.
  const model::VitConfig cfg = micro();
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, fsdp2());
    try {
      load_sharded_checkpoint(prefix, m);
      FAIL() << "torn generation accepted";
    } catch (const reshard::CheckpointCorruptionError& e) {
      EXPECT_NE(std::string(e.what()).find("torn generation"),
                std::string::npos)
          << e.what();
    }
  });
  cleanup(prefix);
}

TEST(CkptFormat, RankFileMissingAManifestRecordIsCorrupt) {
  const std::string prefix = ::testing::TempDir() + "/fmt_missing_record";
  cleanup(prefix);
  save_generation(prefix, 1);
  // Rank 1 loses its rng.data record although the manifest records RNG
  // lineage: inconsistent with its own generation, even for a load that
  // has no RNG attached.
  const std::string victim = reshard::rank_file(prefix, 1);
  const model::CheckpointData full = model::read_checkpoint(victim);
  model::CheckpointData cut;
  for (const model::CheckpointRecord& rec : full.records()) {
    if (rec.name != reshard::kRngRecord) cut.add_record(rec);
  }
  model::write_checkpoint(victim, cut);
  EXPECT_FALSE(reshard::rank_file_problems(
                   cut, reshard::read_manifest(prefix + ".meta"))
                   .empty());

  const model::VitConfig cfg = micro();
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, fsdp2());
    if (ctx.rank() == 1) {
      EXPECT_THROW(load_sharded_checkpoint(prefix, m),
                   reshard::CheckpointCorruptionError);
      EXPECT_EQ(m.step(), 0);
    } else {
      load_sharded_checkpoint(prefix, m);
      EXPECT_EQ(m.step(), 1);
    }
  });
  cleanup(prefix);
}

TEST(CkptFormat, DamagedRngRecordLeavesModelAndRngUntouched) {
  const std::string prefix = ::testing::TempDir() + "/fmt_bad_rng";
  cleanup(prefix);
  save_generation(prefix, 2);
  // A truncated rng.data payload passes the CRC (the file is re-written
  // whole) and the inventory, and fails only when the stream is decoded.
  for (int r = 0; r < 2; ++r) {
    const std::string path = reshard::rank_file(prefix, r);
    const model::CheckpointData full = model::read_checkpoint(path);
    model::CheckpointData bad;
    for (const model::CheckpointRecord& rec : full.records()) {
      if (rec.name == reshard::kRngRecord) {
        bad.add_bytes(rec.name, rec.payload.data(), rec.payload.size() - 8);
      } else {
        bad.add_record(rec);
      }
    }
    model::write_checkpoint(path, bad);
  }

  const model::VitConfig cfg = micro();
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, fsdp2());
    Rng rng(555);
    m.attach_rng(&rng);
    const model::CheckpointData before = collect_train_state(m);
    EXPECT_THROW(load_sharded_checkpoint(prefix, m), std::runtime_error);
    const model::CheckpointData after = collect_train_state(m);
    ASSERT_EQ(before.size(), after.size());
    for (const model::CheckpointRecord& rec : before.records()) {
      const model::CheckpointRecord& other = after.at(rec.name);
      ASSERT_EQ(rec.payload.size(), other.payload.size()) << rec.name;
      EXPECT_EQ(0, std::memcmp(rec.payload.data(), other.payload.data(),
                               rec.payload.size()))
          << "record " << rec.name << " changed by a failed load";
    }
  });
  cleanup(prefix);
}

}  // namespace
}  // namespace orbit::core
