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
/// The tool owns no format knowledge: `reshard::read_manifest` parses the
/// sidecar and each rank file is judged by the loaders' own
/// `reshard::rank_file_problems` (full-state marker, torn generation, and
/// every record the manifest implies at its shard length). Pre-manifest
/// (v1/v2) metadata, or a sidecar naming a mesh beyond the 2^20-rank
/// bound, is reported as such and exits 1 — there is nothing to inspect.
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

namespace reshard = orbit::core::reshard;
using reshard::Manifest;
using reshard::rank_file;
using orbit::json::escape;
using orbit::parallel::ShardedSetDesc;
using orbit::parallel::SliceDesc;

std::string shape_str(const std::vector<std::int64_t>& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

/// Result of offline-checking one rank file against the manifest.
struct RankStatus {
  int rank = 0;
  int d = 0, f = 0, t = 0;
  bool crc_ok = false;
  std::size_t records = 0;
  std::vector<std::string> problems;  ///< empty iff the file verifies
};

/// Check global rank `rank`'s file: CRC/structure via read_checkpoint,
/// then the loaders' own `reshard::rank_file_problems`.
RankStatus check_rank(const std::string& prefix, const Manifest& man,
                      int rank) {
  RankStatus st;
  st.rank = rank;  // = (d·F + f)·T + t
  st.t = rank % man.mesh.tp;
  st.f = rank / man.mesh.tp % man.mesh.fsdp;
  st.d = rank / (man.mesh.tp * man.mesh.fsdp);
  try {
    const orbit::model::CheckpointData data =
        orbit::model::read_checkpoint(rank_file(prefix, st.rank));
    st.crc_ok = true;
    st.records = data.size();
    st.problems = reshard::rank_file_problems(data, man);
  } catch (const std::exception& e) {
    st.problems.push_back(std::string(e.what()));
  }
  return st;
}

void print_text(const std::string& prefix, const Manifest& man,
                const std::vector<RankStatus>& ranks, bool verify,
                bool intact) {
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
  if (verify) std::printf("verification %s\n", intact ? "PASSED" : "FAILED");
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
    man = reshard::read_manifest(prefix + ".meta");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckpt_inspect: %s\n", e.what());
    return 1;
  }

  // CRC + (under --verify) full inventory for every rank of the recorded
  // mesh. The plain dump still reads each file once so the CRC column is
  // real, but only the verify pass fails the exit code on inventory.
  std::vector<RankStatus> ranks;
  bool intact = true;
  for (int r = 0; r < man.mesh.world(); ++r) {
    ranks.push_back(check_rank(prefix, man, r));
    intact = intact && ranks.back().problems.empty();
  }

  if (json) {
    print_json(prefix, man, ranks);
  } else {
    print_text(prefix, man, ranks, verify, intact);
  }
  return verify && !intact ? 1 : 0;
}
