/// \file ckpt_inspect.cpp
/// Offline inspector for sharded checkpoint generations (DESIGN.md §4j).
///
///   ckpt_inspect --prefix run.ckpt --step 8        dump one generation
///   ckpt_inspect --prefix run.ckpt.step8           same, prefix spelled out
///   ckpt_inspect --prefix run.ckpt --step 8 --json 1
///       machine-readable dump (manifest + per-rank file status)
///   ckpt_inspect --prefix run.ckpt --step 8 --verify 1
///       full offline verification — CRC, step consistency, record
///       inventory and shard lengths for every rank of the recorded mesh —
///       without constructing a model. Exit 0 iff the generation is intact.
///
/// Everything is derived from the v3 manifest (core/reshard.hpp): the mesh
/// factorization, the step, and every rank's expected records with their
/// shard lengths and per-member slice extents. Pre-manifest (v1/v2)
/// metadata is reported as such and exits 1 — there is nothing to inspect
/// beyond the factorization.
///
/// Exit codes: 0 intact / dumped, 1 problems found (corruption, legacy
/// metadata, failed verification), 2 usage errors.

#include <cstdio>
#include <string>
#include <vector>

#include "argparse.hpp"
#include "core/reshard.hpp"
#include "json/json.hpp"
#include "model/checkpoint_io.hpp"
#include "parallel/shard_desc.hpp"

namespace {

using orbit::core::reshard::Manifest;
using orbit::json::escape;
using orbit::parallel::ShardedSetDesc;
using orbit::parallel::SliceDesc;

std::string rank_file(const std::string& prefix, int rank) {
  return prefix + ".rank" + std::to_string(rank) + ".bin";
}

std::string shape_str(const std::vector<std::int64_t>& shape,
                      const char* open = "[", const char* close = "]") {
  std::string s = open;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(shape[i]);
  }
  return s + close;
}

/// Result of offline-checking one rank file against the manifest.
struct RankStatus {
  int rank = 0;
  int d = 0, f = 0, t = 0;
  bool crc_ok = false;
  std::size_t records = 0;
  std::vector<std::string> problems;  ///< empty iff the file verifies
};

/// Verify rank (d, f, t)'s file: CRC/structure via read_checkpoint, step
/// consistency, and — per the manifest — every sharded-set record (values
/// + moments + masters) at its shard length, every replicated param at its
/// full size, the training scalars, and the RNG lineage when recorded.
RankStatus check_rank(const std::string& prefix, const Manifest& man, int d,
                      int f, int t) {
  RankStatus st;
  st.d = d;
  st.f = f;
  st.t = t;
  st.rank = (d * man.mesh.fsdp + f) * man.mesh.tp + t;
  const std::string path = rank_file(prefix, st.rank);
  orbit::model::CheckpointData data;
  try {
    data = orbit::model::read_checkpoint(path);
  } catch (const std::exception& e) {
    st.problems.push_back(std::string(e.what()));
    return st;
  }
  st.crc_ok = true;
  st.records = data.size();

  const auto expect = [&](const std::string& name, std::int64_t numel) {
    if (!data.contains(name)) {
      st.problems.push_back("missing record \"" + name + "\"");
      return;
    }
    if (numel < 0) return;  // presence-only (scalars, bytes)
    try {
      const std::int64_t got = data.tensor(name).numel();
      if (got != numel) {
        st.problems.push_back("record \"" + name + "\" has " +
                              std::to_string(got) + " elements, manifest implies " +
                              std::to_string(numel));
      }
    } catch (const std::exception& e) {
      st.problems.push_back(std::string(e.what()));
    }
  };

  if (data.contains("train.step")) {
    const std::int64_t step = data.i64("train.step");
    if (step != man.step) {
      st.problems.push_back("file records step " + std::to_string(step) +
                            " but the manifest committed step " +
                            std::to_string(man.step) + " (torn generation)");
    }
  } else {
    st.problems.push_back("missing record \"train.step\"");
  }
  std::vector<std::string> families = {"", "adamw.m:", "adamw.v:"};
  if (man.masters) families.push_back("adamw.master:");
  for (const ShardedSetDesc& set : man.layout.sets) {
    const std::int64_t n = set.shard_size(man.mesh.tp, man.mesh.fsdp);
    for (const std::string& fam : families) {
      expect(fam + set.record_name(), n);
    }
  }
  for (const orbit::parallel::ReplicatedDesc& rep : man.layout.replicated) {
    std::int64_t n = 1;
    for (std::int64_t dim : rep.shape) n *= dim;
    for (const std::string& fam : families) expect(fam + rep.name, n);
  }
  for (const char* scalar : {"adamw.t", "train.lr", "scaler.scale",
                             "scaler.streak", "scaler.skipped"}) {
    expect(scalar, -1);
  }
  if (man.rng) expect("rng.data", -1);
  return st;
}

void print_text(const std::string& prefix, const Manifest& man,
                const std::vector<RankStatus>& ranks, bool verify) {
  std::printf("generation %s\n", prefix.c_str());
  std::printf("mesh %s (world %d)\n", man.mesh.str().c_str(),
              man.mesh.world());
  std::printf("step %lld\n", static_cast<long long>(man.step));
  std::printf("masters %s, rng lineage %s\n", man.masters ? "yes" : "no",
              man.rng ? "yes" : "no");
  std::printf("sharded sets %zu, replicated params %zu\n",
              man.layout.sets.size(), man.layout.replicated.size());
  for (const ShardedSetDesc& set : man.layout.sets) {
    std::printf("  set %s  flat %lld  shard %lld  record %s\n",
                set.name.c_str(),
                static_cast<long long>(
                    set.flat_size(man.mesh.tp, man.mesh.fsdp)),
                static_cast<long long>(
                    set.shard_size(man.mesh.tp, man.mesh.fsdp)),
                set.record_name().c_str());
    for (const SliceDesc& mem : set.members) {
      std::string extents;
      for (int t = 0; t < man.mesh.tp; ++t) {
        const auto [b, e] = mem.extent(t, man.mesh.tp);
        if (t != 0) extents += " ";
        extents += "[" + std::to_string(b) + "," + std::to_string(e) + ")";
      }
      std::printf("    member %s %s axis %d  tp extents %s\n",
                  mem.logical.c_str(), shape_str(mem.full_shape).c_str(),
                  mem.axis, extents.c_str());
    }
  }
  for (const RankStatus& st : ranks) {
    std::string verdict = st.crc_ok ? "crc ok" : "UNREADABLE";
    if (st.crc_ok && !st.problems.empty()) verdict = "INCONSISTENT";
    std::printf("rank %d (d=%d,f=%d,t=%d): %s [%s, %zu records]\n", st.rank,
                st.d, st.f, st.t, rank_file(prefix, st.rank).c_str(),
                verdict.c_str(), st.records);
    for (const std::string& p : st.problems) {
      std::printf("    problem: %s\n", p.c_str());
    }
  }
  if (verify) {
    bool ok = true;
    for (const RankStatus& st : ranks) ok = ok && st.problems.empty();
    std::printf("verification %s\n", ok ? "PASSED" : "FAILED");
  }
}

void print_json(const std::string& prefix, const Manifest& man,
                const std::vector<RankStatus>& ranks) {
  std::printf("{\n  \"generation\": \"%s\",\n", escape(prefix).c_str());
  std::printf("  \"mesh\": {\"ddp\": %d, \"fsdp\": %d, \"tp\": %d},\n",
              man.mesh.ddp, man.mesh.fsdp, man.mesh.tp);
  std::printf("  \"step\": %lld,\n  \"masters\": %s,\n  \"rng\": %s,\n",
              static_cast<long long>(man.step), man.masters ? "true" : "false",
              man.rng ? "true" : "false");
  std::printf("  \"sets\": [\n");
  for (std::size_t i = 0; i < man.layout.sets.size(); ++i) {
    const ShardedSetDesc& set = man.layout.sets[i];
    std::printf("    {\"name\": \"%s\", \"record\": \"%s\", \"shard_numel\": "
                "%lld, \"members\": [",
                escape(set.name).c_str(), escape(set.record_name()).c_str(),
                static_cast<long long>(
                    set.shard_size(man.mesh.tp, man.mesh.fsdp)));
    for (std::size_t j = 0; j < set.members.size(); ++j) {
      const SliceDesc& mem = set.members[j];
      const auto [b, e] = mem.extent(0, man.mesh.tp);
      std::printf("%s{\"logical\": \"%s\", \"axis\": %d, \"shape\": %s, "
                  "\"tp0_extent\": [%lld, %lld]}",
                  j == 0 ? "" : ", ", escape(mem.logical).c_str(),
                  mem.axis, shape_str(mem.full_shape).c_str(),
                  static_cast<long long>(b), static_cast<long long>(e));
    }
    std::printf("]}%s\n", i + 1 == man.layout.sets.size() ? "" : ",");
  }
  std::printf("  ],\n  \"replicated\": [\n");
  for (std::size_t i = 0; i < man.layout.replicated.size(); ++i) {
    const orbit::parallel::ReplicatedDesc& rep = man.layout.replicated[i];
    std::printf("    {\"name\": \"%s\", \"shape\": %s}%s\n",
                escape(rep.name).c_str(), shape_str(rep.shape).c_str(),
                i + 1 == man.layout.replicated.size() ? "" : ",");
  }
  std::printf("  ],\n  \"ranks\": [\n");
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankStatus& st = ranks[i];
    std::printf("    {\"rank\": %d, \"d\": %d, \"f\": %d, \"t\": %d, "
                "\"file\": \"%s\", \"crc_ok\": %s, \"records\": %zu, "
                "\"problems\": [",
                st.rank, st.d, st.f, st.t,
                escape(rank_file(prefix, st.rank)).c_str(),
                st.crc_ok ? "true" : "false", st.records);
    for (std::size_t j = 0; j < st.problems.size(); ++j) {
      std::printf("%s\"%s\"", j == 0 ? "" : ", ",
                  escape(st.problems[j]).c_str());
    }
    std::printf("]}%s\n", i + 1 == ranks.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  orbit::tools::ArgParser args(
      argc, argv,
      {{"prefix", "checkpoint prefix (generation prefix, or base with --step)"},
       {"step", "generation number: inspect <prefix>.step<N>"},
       {"json", "1 = machine-readable JSON dump instead of text"},
       {"verify", "1 = verify every rank file offline; exit 0 iff intact"}});
  std::string prefix = args.get_str("prefix", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "ckpt_inspect: --prefix is required\n");
    return 2;
  }
  const int step = args.get_int("step", -1);
  if (step >= 0) prefix += ".step" + std::to_string(step);
  const bool json = args.get_int("json", 0) != 0;
  const bool verify = args.get_int("verify", 0) != 0;

  Manifest man;
  try {
    man = orbit::core::reshard::read_manifest(prefix + ".meta");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckpt_inspect: %s\n", e.what());
    return 1;
  }

  // CRC + (under --verify) full inventory for every rank of the recorded
  // mesh. The plain dump still reads each file once so the CRC column is
  // real, but only the verify pass fails the exit code on inventory.
  std::vector<RankStatus> ranks;
  for (int d = 0; d < man.mesh.ddp; ++d) {
    for (int f = 0; f < man.mesh.fsdp; ++f) {
      for (int t = 0; t < man.mesh.tp; ++t) {
        ranks.push_back(check_rank(prefix, man, d, f, t));
      }
    }
  }

  if (json) {
    print_json(prefix, man, ranks);
  } else {
    print_text(prefix, man, ranks, verify);
  }
  if (verify) {
    for (const RankStatus& st : ranks) {
      if (!st.problems.empty()) return 1;
    }
  }
  return 0;
}
