#include "core/reshard.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/hs_checkpoint.hpp"
#include "env/env.hpp"
#include "json/json.hpp"
#include "tensor/ops.hpp"

/// The mesh-resharding checkpoint loader end to end: a generation saved on
/// one (ddp, fsdp, tp) factorization restores exactly — params, Adam
/// moments, bf16 masters, scaler, LR, step, RNG lineage — on a different
/// one, round-tripping back bitwise. Plus the transactional contract (a
/// failed cross-mesh load leaves every byte of target state untouched),
/// the typed error taxonomy, and the mesh-aware retention that keeps
/// mixed-shape checkpoint histories loadable.

namespace orbit::core {
namespace {

namespace fs = std::filesystem;
using reshard::MeshShape;

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

DistributedTrainerConfig config_for(const MeshShape& s, bool masters) {
  DistributedTrainerConfig dtc;
  dtc.engine.ddp = s.ddp;
  dtc.engine.fsdp = s.fsdp;
  dtc.engine.tp = s.tp;
  dtc.engine.mixed_precision = masters;
  dtc.engine.adamw.lr = 2e-3f;
  dtc.schedule = train::LrSchedule(2e-3f, 2, 12);
  return dtc;
}

/// Delete every on-disk artifact under `prefix` (generations + pointer).
void cleanup(const std::string& prefix) {
  const fs::path p(prefix);
  fs::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const std::string stem = p.filename().string();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) == 0) fs::remove(entry.path(), ec);
  }
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Bitwise record-by-record comparison; `include_rng` false drops the
/// `rng.data` lineage from the comparison (a shrink of the data axis
/// loses lineages by design — see reshard.hpp).
void expect_state_equal(const model::CheckpointData& want,
                        const model::CheckpointData& got, int rank,
                        bool include_rng) {
  for (const model::CheckpointRecord& rec : want.records()) {
    if (!include_rng && rec.name == "rng.data") continue;
    ASSERT_TRUE(got.contains(rec.name)) << "rank " << rank << ": " << rec.name;
    const model::CheckpointRecord& other = got.at(rec.name);
    ASSERT_EQ(rec.payload.size(), other.payload.size())
        << "rank " << rank << ": " << rec.name;
    EXPECT_EQ(0, std::memcmp(rec.payload.data(), other.payload.data(),
                             rec.payload.size()))
        << "rank " << rank << ": record " << rec.name
        << " differs after the reshard round trip";
  }
}

/// Train 3 steps on mesh `a`, save; resume the generation on mesh `b`
/// (cross-mesh => the resharding loader), re-save from `b`; resume that
/// back on `a` and compare bitwise against the original rank states.
void round_trip(const MeshShape& a, const MeshShape& b, bool masters,
                const std::string& tag) {
  const model::VitConfig cfg = micro();
  const std::string pa = ::testing::TempDir() + "/reshard_a_" + tag;
  const std::string pb = ::testing::TempDir() + "/reshard_b_" + tag;
  cleanup(pa);
  cleanup(pb);
  // RNG lineage is keyed by data shard; a target shard that never existed
  // under the source mesh keeps its fresh stream, so the round trip is
  // only rng-bitwise when the data-axis extent survives both hops.
  const bool rng_preserved = a.ddp * a.fsdp == b.ddp * b.fsdp;

  std::vector<model::CheckpointData> saved(
      static_cast<std::size_t>(a.world()));
  comm::run_spmd(a.world(), [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for(a, masters));
    Rng rng(100 + static_cast<std::uint64_t>(m.data_shard()));
    m.attach_rng(&rng);
    for (int i = 0; i < 3; ++i) m.train_step(draw_batch(cfg, rng));
    save_sharded_checkpoint(pa, m);
    saved[static_cast<std::size_t>(ctx.rank())] = collect_train_state(m);
  });

  comm::run_spmd(b.world(), [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for(b, masters));
    Rng rng(777);  // wrong seed: preserved lineages must come from disk
    m.attach_rng(&rng);
    load_sharded_checkpoint(pa, m);
    EXPECT_EQ(m.step(), 3) << tag;
    save_sharded_checkpoint(pb, m);
  });

  comm::run_spmd(a.world(), [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for(a, masters));
    Rng rng(888);
    m.attach_rng(&rng);
    load_sharded_checkpoint(pb, m);
    EXPECT_EQ(m.step(), 3) << tag;
    expect_state_equal(saved[static_cast<std::size_t>(ctx.rank())],
                       collect_train_state(m), ctx.rank(), rng_preserved);
  });
  cleanup(pa);
  cleanup(pb);
}

TEST(Reshard, RoundTrip2x2x2To2x2x1WithMasters) {
  // Drops the TP axis only; the data-shard count (and so every RNG
  // lineage) survives, making the whole round trip bitwise — including
  // the bf16 master copies of mixed-precision mode.
  round_trip({2, 2, 2}, {2, 2, 1}, /*masters=*/true, "tp");
}

TEST(Reshard, RoundTrip2x2x2To1x2x2) {
  // Halves the DDP axis: two data-RNG lineages are shed and re-minted.
  round_trip({2, 2, 2}, {1, 2, 2}, /*masters=*/false, "ddp");
}

TEST(Reshard, RoundTrip2x2x2To1x1x2) {
  // Collapses DDP and FSDP at once (8 ranks -> 2).
  round_trip({2, 2, 2}, {1, 1, 2}, /*masters=*/false, "df");
}

TEST(Reshard, RoundTrip1x4x1To1x2x1) {
  // Pure-FSDP factorizations: the flat-buffer re-pack (2 shards from 4)
  // is the whole transform.
  round_trip({1, 4, 1}, {1, 2, 1}, /*masters=*/false, "fsdp");
}

TEST(Reshard, IdentityReshardMatchesTheFastPath) {
  // Same mesh on both ends: the explicit resharding loader must produce
  // byte-for-byte the state the same-mesh fast path restores.
  const model::VitConfig cfg = micro();
  const MeshShape shape{1, 2, 2};
  const std::string prefix = ::testing::TempDir() + "/reshard_identity";
  cleanup(prefix);
  comm::run_spmd(shape.world(), [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for(shape, false));
    Rng rng(100 + static_cast<std::uint64_t>(m.data_shard()));
    m.attach_rng(&rng);
    for (int i = 0; i < 2; ++i) m.train_step(draw_batch(cfg, rng));
    save_sharded_checkpoint(prefix, m);
  });
  comm::run_spmd(shape.world(), [&](comm::RankContext& ctx) {
    DistributedOrbitModel fast(cfg, ctx, config_for(shape, false));
    Rng rng_fast(555);
    fast.attach_rng(&rng_fast);
    load_sharded_checkpoint(prefix, fast);

    DistributedOrbitModel via(cfg, ctx, config_for(shape, false));
    Rng rng_via(555);
    via.attach_rng(&rng_via);
    reshard::load_resharded(prefix, via);

    expect_state_equal(collect_train_state(fast), collect_train_state(via),
                       ctx.rank(), /*include_rng=*/true);
    EXPECT_EQ(via.step(), fast.step());
  });
  cleanup(prefix);
}

TEST(Reshard, FailedCrossMeshLoadLeavesStateBitwiseUntouched) {
  const model::VitConfig cfg = micro();
  const std::string prefix = ::testing::TempDir() + "/reshard_txn";
  cleanup(prefix);
  comm::run_spmd(8, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for({2, 2, 2}, false));
    Rng rng(100 + static_cast<std::uint64_t>(m.data_shard()));
    m.attach_rng(&rng);
    for (int i = 0; i < 2; ++i) m.train_step(draw_batch(cfg, rng));
    save_sharded_checkpoint(prefix, m);
  });

  // Damage one of the source files the gather needs (rank 2 sits on the
  // d=0 plane every target reads). Truncating past the header defeats the
  // payload CRC, not the file-open.
  const std::string victim = prefix + ".rank2.bin";
  {
    std::ifstream is(victim, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(is),
                      std::istreambuf_iterator<char>()};
    ASSERT_GT(bytes.size(), 64u);
    spew(victim, bytes.substr(0, bytes.size() / 2));
  }

  comm::run_spmd(4, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for({2, 2, 1}, false));
    Rng rng(42);
    m.attach_rng(&rng);
    const model::CheckpointData before = collect_train_state(m);
    EXPECT_THROW(load_sharded_checkpoint(prefix, m),
                 reshard::CheckpointCorruptionError);
    expect_state_equal(before, collect_train_state(m), ctx.rank(),
                       /*include_rng=*/true);
    EXPECT_EQ(m.step(), 0);
  });
  cleanup(prefix);
}

TEST(Reshard, DifferentArchitectureIsMeshUnsatisfiable) {
  // Same record-name vocabulary, different layer count: the manifest is
  // complete and intact, but the target model simply cannot host it — the
  // taxonomy must say "unsatisfiable", not "corrupt".
  const model::VitConfig cfg = micro();
  const std::string prefix = ::testing::TempDir() + "/reshard_arch";
  cleanup(prefix);
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for({1, 2, 1}, false));
    Rng data_rng(5);
    m.train_step(draw_batch(cfg, data_rng));
    save_sharded_checkpoint(prefix, m);
  });
  model::VitConfig deeper = micro();
  deeper.layers = 3;
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(deeper, ctx, config_for({2, 1, 1}, false));
    const model::CheckpointData before = collect_train_state(m);
    EXPECT_THROW(load_sharded_checkpoint(prefix, m),
                 reshard::MeshUnsatisfiableError);
    expect_state_equal(before, collect_train_state(m), ctx.rank(),
                       /*include_rng=*/true);
  });
  cleanup(prefix);
}

TEST(Reshard, ManifestParserErrorTaxonomy) {
  const std::string dir = ::testing::TempDir();
  const std::string meta = dir + "/reshard_meta_taxonomy.meta";

  // Pre-manifest metadata: a legal v2 sidecar is *incomplete*, not corrupt.
  spew(meta, "orbit-sharded-checkpoint v2\nddp 1\nfsdp 2\ntp 1\nstep 4\n");
  EXPECT_THROW(reshard::read_manifest(meta), reshard::ManifestIncompleteError);

  // Structural damage inside a v3 file is corruption.
  spew(meta,
       "orbit-sharded-checkpoint v3\nddp 1\nfsdp 2\ntp 1\nstep 4\n"
       "masters 0\nrng 1\nsets junk\n");
  EXPECT_THROW(reshard::read_manifest(meta),
               reshard::CheckpointCorruptionError);
  spew(meta, "orbit-sharded-checkpoint v3\nddp 1\n");
  EXPECT_THROW(reshard::read_manifest(meta),
               reshard::CheckpointCorruptionError);

  // And a manifest round-trips through its own text form.
  reshard::Manifest m;
  m.mesh = {2, 2, 1};
  m.step = 12;
  m.rng = true;
  parallel::ShardedSetDesc set;
  set.name = "blk0.attn.qkv";
  set.members.push_back(parallel::SliceDesc{"blk0.wq", {16, 16}, 1});
  m.layout.sets.push_back(set);
  m.layout.replicated.push_back(parallel::ReplicatedDesc{"head.b", {16}});
  spew(meta, reshard::manifest_text(m));
  const reshard::Manifest back = reshard::read_manifest(meta);
  EXPECT_EQ(back.mesh, m.mesh);
  EXPECT_EQ(back.step, 12);
  EXPECT_TRUE(back.rng);
  EXPECT_FALSE(back.masters);
  ASSERT_EQ(back.layout.sets.size(), 1u);
  EXPECT_EQ(back.layout.sets[0].name, "blk0.attn.qkv");
  ASSERT_EQ(back.layout.sets[0].members.size(), 1u);
  EXPECT_EQ(back.layout.sets[0].members[0].axis, 1);
  ASSERT_EQ(back.layout.replicated.size(), 1u);
  EXPECT_EQ(back.layout.replicated[0].name, "head.b");
  std::remove(meta.c_str());
}

TEST(Reshard, MeshShapeParsing) {
  const MeshShape s = reshard::parse_mesh_shape("2x4x1");
  EXPECT_EQ(s.ddp, 2);
  EXPECT_EQ(s.fsdp, 4);
  EXPECT_EQ(s.tp, 1);
  EXPECT_EQ(s.str(), "2x4x1");
  EXPECT_EQ(s.world(), 8);
  for (const char* bad : {"", "2x2", "2x2x2x2", "0x2x1", "-1x2x1", "2x2xq",
                          "2x2x1 ", "axbxc"}) {
    EXPECT_THROW(reshard::parse_mesh_shape(bad), std::invalid_argument)
        << "\"" << bad << "\"";
  }
}

TEST(Reshard, ElasticShapesEnvKnob) {
  ::unsetenv("ORBIT_ELASTIC_SHAPES");
  EXPECT_TRUE(reshard::elastic_shapes_from_env().empty());
  ::setenv("ORBIT_ELASTIC_SHAPES", "2x2x1,1x2x1", 1);
  const std::vector<MeshShape> shapes = reshard::elastic_shapes_from_env();
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0], (MeshShape{2, 2, 1}));
  EXPECT_EQ(shapes[1], (MeshShape{1, 2, 1}));
  ::setenv("ORBIT_ELASTIC_SHAPES", "2x2x1,junk", 1);
  EXPECT_THROW(reshard::elastic_shapes_from_env(), env::EnvError);
  ::unsetenv("ORBIT_ELASTIC_SHAPES");
}

TEST(Reshard, PostShrinkResaveRemovesStaleWiderMeshRankFiles) {
  // Regression: a post-shrink save at a step the wider mesh also saved
  // used to leave rank files 4..7 stranded next to fresh 0..3 metadata —
  // on-disk state a later load or prune could trip over.
  const model::VitConfig cfg = micro();
  const std::string prefix = ::testing::TempDir() + "/reshard_retention";
  cleanup(prefix);
  DistributedTrainerConfig wide = config_for({2, 2, 2}, false);
  wide.checkpoint_every = 2;
  wide.checkpoint_prefix = prefix;
  comm::run_spmd(8, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, wide);
    Rng rng(100 + static_cast<std::uint64_t>(m.data_shard()));
    m.attach_rng(&rng);
    for (int i = 0; i < 4; ++i) m.train_step(draw_batch(cfg, rng));
  });
  EXPECT_EQ(latest_checkpoint_step(prefix), 4);
  EXPECT_TRUE(fs::exists(prefix + ".step4.rank7.bin"));

  // Shrink to 2x2x1, resume the committed generation, and re-save it at
  // the same step (what the first post-shrink commit does).
  comm::run_spmd(4, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for({2, 2, 1}, false));
    Rng rng(42);
    m.attach_rng(&rng);
    EXPECT_EQ(resume_from_latest(prefix, m), 4);
    save_step_checkpoint(prefix, m);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(fs::exists(prefix + ".step4.rank" + std::to_string(r) +
                           ".bin"))
        << r;
  }
  for (int r = 4; r < 8; ++r) {
    EXPECT_FALSE(fs::exists(prefix + ".step4.rank" + std::to_string(r) +
                            ".bin"))
        << "stale wide-mesh rank file survived the re-save: rank " << r;
  }
  // The rewritten generation is intact and loadable on the new mesh.
  EXPECT_EQ(newest_intact_step(prefix), 4);
  comm::run_spmd(4, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for({2, 2, 1}, false));
    Rng rng(43);
    m.attach_rng(&rng);
    EXPECT_EQ(resume_from_latest(prefix, m), 4);
  });
  cleanup(prefix);
}

TEST(Reshard, PruneRepairsSurvivorsOfMixedShapeHistories) {
  // A crash between the metadata rewrite and the save-time cleanup can
  // still strand wide-mesh rank files; the pruner strips survivors down
  // to their metadata's recorded world as it runs.
  const std::string prefix = ::testing::TempDir() + "/reshard_prune";
  cleanup(prefix);
  const std::string gen = prefix + ".step10";
  spew(gen + ".meta",
       "orbit-sharded-checkpoint v2\nddp 1\nfsdp 2\ntp 1\nstep 10\n");
  for (int r = 0; r < 5; ++r) {
    spew(gen + ".rank" + std::to_string(r) + ".bin", "fake");
  }
  spew(prefix + ".latest", "step 10\n");

  EXPECT_EQ(prune_checkpoints(prefix, 1), 0);
  EXPECT_TRUE(fs::exists(gen + ".rank0.bin"));
  EXPECT_TRUE(fs::exists(gen + ".rank1.bin"));
  for (int r = 2; r < 5; ++r) {
    EXPECT_FALSE(fs::exists(gen + ".rank" + std::to_string(r) + ".bin"))
        << "rank " << r << " outlived its generation's recorded mesh";
  }
  cleanup(prefix);
}

// --- ckpt_inspect CLI -------------------------------------------------------

int run_cli(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(CkptInspect, DumpsAndVerifiesAGenerationOffline) {
  const model::VitConfig cfg = micro();
  const std::string prefix = ::testing::TempDir() + "/inspect_gen";
  cleanup(prefix);
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for({1, 2, 1}, false));
    Rng rng(100 + static_cast<std::uint64_t>(m.data_shard()));
    m.attach_rng(&rng);
    for (int i = 0; i < 2; ++i) m.train_step(draw_batch(cfg, rng));
    save_sharded_checkpoint(prefix, m);
  });
  const std::string bin = ORBIT_CKPT_INSPECT_BIN;
  const std::string out = prefix + ".out";

  // Text dump names the mesh, the step, and passes verification.
  ASSERT_EQ(run_cli(bin + " --prefix " + prefix + " --verify 1 > " + out), 0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("mesh 1x2x1"), std::string::npos) << text;
  EXPECT_NE(text.find("step 2"), std::string::npos) << text;
  EXPECT_NE(text.find("crc ok"), std::string::npos) << text;
  EXPECT_NE(text.find("verification PASSED"), std::string::npos) << text;

  // JSON mode reports the same facts machine-readably.
  ASSERT_EQ(run_cli(bin + " --prefix " + prefix + " --json 1 > " + out), 0);
  const std::string json = slurp(out);
  EXPECT_NE(json.find("\"mesh\": {\"ddp\": 1, \"fsdp\": 2, \"tp\": 1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"step\": 2"), std::string::npos) << json;

  // Damaging a rank file flips offline verification to exit 1.
  {
    std::ifstream is(prefix + ".rank1.bin", std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(is),
                      std::istreambuf_iterator<char>()};
    spew(prefix + ".rank1.bin", bytes.substr(0, bytes.size() / 2));
  }
  EXPECT_EQ(run_cli(bin + " --prefix " + prefix + " --verify 1 > " + out), 1);
  const std::string broken = slurp(out);
  EXPECT_NE(broken.find("verification FAILED"), std::string::npos) << broken;

  // Usage and missing-generation contracts.
  EXPECT_EQ(run_cli(bin + " >/dev/null 2>&1"), 2);
  EXPECT_EQ(run_cli(bin + " --prefix /nonexistent/gen >/dev/null 2>&1"), 1);
  cleanup(prefix);
}

TEST(CkptInspect, JsonEscapesControlBytesInThePrefix) {
  // A tab in the generation prefix (and so in every rank file name) must
  // come out escaped: raw control bytes inside a JSON string are invalid.
  const model::VitConfig cfg = micro();
  const std::string prefix = ::testing::TempDir() + "/inspect\ttab_gen";
  cleanup(prefix);
  comm::run_spmd(2, [&](comm::RankContext& ctx) {
    DistributedOrbitModel m(cfg, ctx, config_for({1, 2, 1}, false));
    Rng rng(100 + static_cast<std::uint64_t>(m.data_shard()));
    m.attach_rng(&rng);
    m.train_step(draw_batch(cfg, rng));
    save_sharded_checkpoint(prefix, m);
  });
  const std::string out = prefix + ".out";
  ASSERT_EQ(run_cli(std::string(ORBIT_CKPT_INSPECT_BIN) + " --prefix '" +
                    prefix + "' --json 1 > '" + out + "'"),
            0);
  const std::string text = slurp(out);
  EXPECT_EQ(text.find('\t'), std::string::npos) << text;
  const json::Value doc = json::parse(text);
  ASSERT_NE(doc.get("generation"), nullptr);
  EXPECT_EQ(doc.get("generation")->as_string(), prefix);
  ASSERT_NE(doc.get("ranks"), nullptr);
  const json::Array& ranks = doc.get("ranks")->as_array();
  ASSERT_EQ(ranks.size(), 2u);
  EXPECT_EQ(ranks[0].get("file")->as_string(), prefix + ".rank0.bin");
  cleanup(prefix);
}

}  // namespace
}  // namespace orbit::core
