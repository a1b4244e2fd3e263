#include "core/reshard.hpp"

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "core/distributed_model.hpp"
#include "core/hs_checkpoint.hpp"
#include "env/env.hpp"
#include "model/checkpoint_io.hpp"
#include "telemetry/registry.hpp"
#include "tensor/ops.hpp"

namespace orbit::core::reshard {
namespace {

constexpr const char* kHeader = "orbit-sharded-checkpoint v";
constexpr const char* kShapesVar = "ORBIT_ELASTIC_SHAPES";
constexpr const char* kShapeHint =
    "(want DxFxT, each factor >= 1 and world <= 1048576, e.g. \"2x2x1\")";

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw CheckpointCorruptionError("sharded checkpoint: corrupt metadata " +
                                  path + ": " + what);
}

/// Strict "<key> <integer>" line. Any deviation — missing line, wrong key,
/// non-numeric value or trailing junk — is corruption, never a silent zero
/// (a truncated sidecar once read as ddp=fsdp=tp=0 and reported a bogus
/// mesh mismatch).
std::int64_t read_kv(std::istream& is, const std::string& path,
                     const std::string& key) {
  std::string line;
  if (!std::getline(is, line)) {
    corrupt(path, "missing \"" + key + "\" line (truncated file)");
  }
  std::istringstream ls(line);
  std::string k;
  std::int64_t v = 0;
  if (!(ls >> k) || k != key) {
    corrupt(path, "expected key \"" + key + "\", got \"" + line + "\"");
  }
  if (!(ls >> v)) {
    corrupt(path, "key \"" + key + "\" has a non-numeric value: \"" + line +
                      "\"");
  }
  std::string rest;
  if (ls >> rest) {
    corrupt(path, "trailing garbage after \"" + key + "\": \"" + line + "\"");
  }
  return v;
}

/// The mesh-size rule (kMaxMeshWorld), checked without overflow.
bool mesh_fits(std::int64_t ddp, std::int64_t fsdp, std::int64_t tp) {
  return ddp >= 1 && fsdp >= 1 && tp >= 1 && ddp <= kMaxMeshWorld &&
         fsdp <= kMaxMeshWorld / ddp && tp <= kMaxMeshWorld / (ddp * fsdp);
}

/// Read a shape's "<ndims> <d0> <d1> ..." tail from a manifest line. The
/// element count is bounded (2^40) so the shard arithmetic every loader
/// and the inspector run on the layout cannot overflow.
std::vector<std::int64_t> read_dims(std::istringstream& ls,
                                    const std::string& path,
                                    const std::string& line) {
  constexpr std::int64_t kMaxNumel = std::int64_t{1} << 40;
  std::int64_t nd = -1;
  if (!(ls >> nd) || nd < 1 || nd > 8) {
    corrupt(path, "bad dimension count in \"" + line + "\"");
  }
  std::vector<std::int64_t> dims(static_cast<std::size_t>(nd));
  std::int64_t numel = 1;
  for (auto& d : dims) {
    if (!(ls >> d) || d <= 0 || d > kMaxNumel / numel) {
      corrupt(path, "bad dimension in \"" + line + "\"");
    }
    numel *= d;
  }
  return dims;
}

std::string shape_str(const std::vector<std::int64_t>& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

/// The loaders' use of `rank_file_problems`: the first problem, thrown.
void check_rank_file(const model::CheckpointData& data,
                     const std::string& path, const Manifest& man) {
  const std::vector<std::string> problems = rank_file_problems(data, man);
  if (!problems.empty()) {
    throw CheckpointCorruptionError("sharded checkpoint: " + path + ": " +
                                    problems.front());
  }
}

/// A source rank file by global rank, read and checked on first use.
using SourceFiles = std::function<const model::CheckpointData&(int)>;

/// Reassemble one family's logical tensors for one sharded set from the
/// source mesh's d=0 plane: concat the F FSDP shards per source TP rank
/// into the flat buffer, unpack members by pack-order offset, concat the
/// TP slices along each member's slice axis.
std::vector<Tensor> gather_set(const SourceFiles& files, const Manifest& man,
                               const parallel::ShardedSetDesc& set,
                               const std::string& family) {
  const int S = man.mesh.tp;
  const int F = man.mesh.fsdp;
  const std::string rec = family + set.record_name();
  // Per source TP rank: the member slices unpacked from that rank's flat.
  std::vector<std::vector<Tensor>> slices(set.members.size());
  for (int t = 0; t < S; ++t) {
    std::vector<Tensor> shards;
    shards.reserve(static_cast<std::size_t>(F));
    for (int f = 0; f < F; ++f) {
      const int rank = f * S + t;  // (d=0, f, t)
      shards.push_back(files(rank).tensor(rec));
    }
    const Tensor flat = concat(shards, 0);
    for (std::size_t j = 0; j < set.members.size(); ++j) {
      const parallel::SliceDesc& mem = set.members[j];
      const std::int64_t off = set.member_offset(j, S);
      Tensor piece = slice(flat, 0, off, off + mem.slice_numel(S));
      std::vector<std::int64_t> sshape = mem.full_shape;
      sshape[static_cast<std::size_t>(mem.axis)] /= S;
      slices[j].push_back(piece.reshape(sshape));
    }
  }
  std::vector<Tensor> logical;
  logical.reserve(set.members.size());
  for (std::size_t j = 0; j < set.members.size(); ++j) {
    logical.push_back(S == 1 ? slices[j][0]
                             : concat(slices[j], set.members[j].axis));
  }
  return logical;
}

/// Re-slice one family's logical tensors for the target rank: cut each
/// member's TP slice, pack in order into a zero-padded flat buffer, and
/// extract the target FSDP shard — byte-identical to what a native save on
/// the target mesh would have written (the pad region is zero in values,
/// moments, and masters alike; see hs_checkpoint.hpp).
Tensor reslice_set(const parallel::ShardedSetDesc& set,
                   const std::vector<Tensor>& logical, int t, int tp, int f,
                   int fsdp) {
  Tensor flat = Tensor::zeros({set.flat_size(tp, fsdp)});
  for (std::size_t j = 0; j < set.members.size(); ++j) {
    const parallel::SliceDesc& mem = set.members[j];
    const auto [b, e] = mem.extent(t, tp);
    const Tensor piece = slice(logical[j], mem.axis, b, e);
    std::memcpy(flat.data() + set.member_offset(j, tp), piece.data(),
                static_cast<std::size_t>(piece.numel()) * sizeof(float));
  }
  const std::int64_t shard_n = set.shard_size(tp, fsdp);
  return slice(flat, 0, static_cast<std::int64_t>(f) * shard_n,
               static_cast<std::int64_t>(f + 1) * shard_n);
}

/// What the load transaction does with an attached data RNG.
enum class RngRule {
  kRequire,  ///< same mesh: the rank file must carry this rank's stream
  kIfSaved,  ///< cross mesh: restore a saved lineage, keep a fresh one
};

/// The one load transaction both loaders end in: validate full-state `data`
/// (named `source` in errors) against `m`'s parameters and optimizer, read
/// the scalars and decode the RNG state, and only then apply params,
/// optimizer state, LR, scaler, step and RNG. A throw leaves `m` bitwise
/// untouched.
void apply_train_state(const model::CheckpointData& data,
                       const std::string& source, DistributedOrbitModel& m,
                       RngRule rng) {
  const std::vector<model::Param*> params = m.all_params();
  model::check_params(data, params);
  m.optimizer().check_state(data);
  const std::int64_t step = data.i64(kStepRecord);
  const double lr = data.f64(kLrRecord);
  const double scale = data.f64(kScaleRecord);
  const std::int64_t streak = data.i64(kStreakRecord);
  const std::int64_t skipped = data.i64(kSkippedRecord);
  // Decode into a copy so a damaged rng.data throws before any mutation.
  std::optional<Rng> stream;
  if (m.attached_rng() != nullptr) {
    if (data.contains(kRngRecord)) {
      stream = *m.attached_rng();
      model::read_rng_state(data, kRngRecord, *stream);
    } else if (rng == RngRule::kRequire) {
      throw std::runtime_error(
          "sharded checkpoint: an RNG is attached but " + source +
          " carries no rng.data record — it was saved without one");
    }
  }

  model::apply_params(data, params);
  m.optimizer().import_state(data);
  m.optimizer().set_lr(static_cast<float>(lr));
  m.scaler().set_state(static_cast<float>(scale), streak, skipped);
  m.set_step(step);
  if (stream.has_value()) *m.attached_rng() = *stream;
}

}  // namespace

std::string MeshShape::str() const {
  return std::to_string(ddp) + "x" + std::to_string(fsdp) + "x" +
         std::to_string(tp);
}

MeshShape parse_mesh_shape(const std::string& text) {
  const auto bad = [&text]() -> int {
    throw std::invalid_argument("parse_mesh_shape: bad mesh shape \"" + text +
                                "\" " + kShapeHint);
  };
  std::int64_t out[3] = {0, 0, 0};
  std::size_t i = 0;
  for (int part = 0; part < 3; ++part) {
    if (part > 0) {
      if (i >= text.size() || text[i] != 'x') bad();
      ++i;
    }
    std::size_t digits = 0;
    std::int64_t v = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      v = v * 10 + (text[i] - '0');
      if (v > kMaxMeshWorld) bad();  // also bounds the accumulation
      ++i;
      ++digits;
    }
    if (digits == 0) bad();
    out[part] = v;
  }
  if (i != text.size() || !mesh_fits(out[0], out[1], out[2])) bad();
  return MeshShape{static_cast<int>(out[0]), static_cast<int>(out[1]),
                   static_cast<int>(out[2])};
}

std::vector<MeshShape> elastic_shapes_from_env() {
  const std::optional<std::string> value = env::raw(kShapesVar);
  if (!value.has_value()) return {};
  std::vector<MeshShape> shapes;
  std::size_t start = 0;
  const std::string& s = *value;
  while (true) {
    const std::size_t comma = s.find(',', start);
    const std::string tok = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    try {
      shapes.push_back(parse_mesh_shape(tok));
    } catch (const std::invalid_argument&) {
      env::fail(kShapesVar, s,
                "bad mesh shape \"" + tok + "\" " + kShapeHint);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return shapes;
}

std::string manifest_text(const Manifest& m) {
  std::ostringstream os;
  // The leading key lines are v2's layout (header aside); v3 appends the
  // flags and the shard layout.
  os << kHeader << 3 << "\n"
     << "ddp " << m.mesh.ddp << "\nfsdp " << m.mesh.fsdp << "\ntp "
     << m.mesh.tp << "\nstep " << m.step << "\nmasters " << (m.masters ? 1 : 0)
     << "\nrng " << (m.rng ? 1 : 0) << "\n";
  os << "sets " << m.layout.sets.size() << "\n";
  for (const parallel::ShardedSetDesc& set : m.layout.sets) {
    os << "set " << set.name << " " << set.members.size() << "\n";
    for (const parallel::SliceDesc& mem : set.members) {
      os << "member " << mem.logical << " " << mem.axis << " "
         << mem.full_shape.size();
      for (std::int64_t d : mem.full_shape) os << " " << d;
      os << "\n";
    }
  }
  os << "replicated " << m.layout.replicated.size() << "\n";
  for (const parallel::ReplicatedDesc& rep : m.layout.replicated) {
    os << "param " << rep.name << " " << rep.shape.size();
    for (std::int64_t d : rep.shape) os << " " << d;
    os << "\n";
  }
  return os.str();
}

Manifest read_sidecar(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("sharded checkpoint: missing metadata file " +
                             path);
  }
  std::string header;
  if (!std::getline(is, header)) corrupt(path, "empty file");
  Manifest m;
  m.version = 0;
  for (int v = 1; v <= 3; ++v) {
    if (header == kHeader + std::to_string(v)) m.version = v;
  }
  if (m.version == 0) corrupt(path, "bad header \"" + header + "\"");
  const std::int64_t ddp = read_kv(is, path, "ddp");
  const std::int64_t fsdp = read_kv(is, path, "fsdp");
  const std::int64_t tp = read_kv(is, path, "tp");
  if (!mesh_fits(ddp, fsdp, tp)) {
    corrupt(path, "mesh size out of range (each factor >= 1, world <= " +
                      std::to_string(kMaxMeshWorld) + ")");
  }
  m.mesh = MeshShape{static_cast<int>(ddp), static_cast<int>(fsdp),
                     static_cast<int>(tp)};
  if (m.version == 1) return m;
  m.step = read_kv(is, path, "step");
  if (m.step < 0) corrupt(path, "negative step");
  if (m.version == 2) return m;

  const std::int64_t masters = read_kv(is, path, "masters");
  const std::int64_t rng = read_kv(is, path, "rng");
  if ((masters != 0 && masters != 1) || (rng != 0 && rng != 1)) {
    corrupt(path, "masters/rng flags must be 0 or 1");
  }
  m.masters = masters == 1;
  m.rng = rng == 1;

  const std::int64_t nsets = read_kv(is, path, "sets");
  if (nsets < 0 || nsets > 100000) corrupt(path, "implausible set count");
  for (std::int64_t i = 0; i < nsets; ++i) {
    std::string line;
    if (!std::getline(is, line)) corrupt(path, "truncated set list");
    std::istringstream ls(line);
    std::string kw;
    parallel::ShardedSetDesc set;
    std::int64_t nmem = -1;
    if (!(ls >> kw >> set.name >> nmem) || kw != "set" || nmem < 1 ||
        nmem > 64) {
      corrupt(path, "bad set line \"" + line + "\"");
    }
    for (std::int64_t j = 0; j < nmem; ++j) {
      if (!std::getline(is, line)) corrupt(path, "truncated member list");
      std::istringstream ms(line);
      parallel::SliceDesc mem;
      if (!(ms >> kw >> mem.logical >> mem.axis) || kw != "member") {
        corrupt(path, "bad member line \"" + line + "\"");
      }
      mem.full_shape = read_dims(ms, path, line);
      if (mem.axis < 0 ||
          mem.axis >= static_cast<int>(mem.full_shape.size())) {
        corrupt(path, "slice axis out of range in \"" + line + "\"");
      }
      if (!mem.divisible_by(m.mesh.tp)) {
        corrupt(path, "member \"" + mem.logical +
                          "\" is not divisible by the recorded tp=" +
                          std::to_string(m.mesh.tp));
      }
      set.members.push_back(std::move(mem));
    }
    m.layout.sets.push_back(std::move(set));
  }

  const std::int64_t nrep = read_kv(is, path, "replicated");
  if (nrep < 0 || nrep > 100000) corrupt(path, "implausible replicated count");
  for (std::int64_t i = 0; i < nrep; ++i) {
    std::string line;
    if (!std::getline(is, line)) corrupt(path, "truncated replicated list");
    std::istringstream ps(line);
    std::string kw;
    parallel::ReplicatedDesc rep;
    if (!(ps >> kw >> rep.name) || kw != "param") {
      corrupt(path, "bad param line \"" + line + "\"");
    }
    rep.shape = read_dims(ps, path, line);
    m.layout.replicated.push_back(std::move(rep));
  }
  std::string trailing;
  while (std::getline(is, trailing)) {
    if (!trailing.empty()) {
      corrupt(path, "trailing garbage \"" + trailing + "\"");
    }
  }
  return m;
}

Manifest read_manifest(const std::string& path) {
  Manifest m = read_sidecar(path);
  if (m.version < 3) {
    throw ManifestIncompleteError(
        "reshard: " + path + " is a pre-manifest (v" +
        std::to_string(m.version) +
        ") sidecar — it records only the mesh factorization, not the "
        "per-record layout a cross-mesh load needs; re-save on the source "
        "mesh to upgrade");
  }
  return m;
}

std::string rank_file(const std::string& prefix, int rank) {
  return prefix + ".rank" + std::to_string(rank) + ".bin";
}

std::vector<std::string> record_families(bool masters) {
  std::vector<std::string> fams = {"", "adamw.m:", "adamw.v:"};
  if (masters) fams.push_back("adamw.master:");
  return fams;
}

std::vector<std::string> rank_file_problems(const model::CheckpointData& data,
                                            const Manifest& man) {
  if (!data.contains(kOptStepRecord) || !data.contains(kStepRecord)) {
    return {"not a full-training-state rank file (missing adamw.t / "
            "train.step records)"};
  }
  std::vector<std::string> problems;
  const std::int64_t step = data.i64(kStepRecord);
  if (man.version >= 2 && step != man.step) {
    problems.push_back("torn generation — the file is at step " +
                       std::to_string(step) +
                       " but the metadata committed step " +
                       std::to_string(man.step) +
                       " (a save was interrupted between ranks)");
  }
  if (man.version < 3) return problems;
  // Inventory against the v3 layout; `numel` < 0 checks presence only.
  const auto expect = [&](const std::string& name, std::int64_t numel) {
    if (!data.contains(name)) {
      problems.push_back("missing record \"" + name + "\"");
      return;
    }
    if (numel < 0) return;
    const model::CheckpointRecord& rec = data.at(name);
    const std::size_t got = rec.payload.size() / sizeof(float);
    if (rec.dtype != "f32") {
      problems.push_back("record \"" + name + "\" has dtype " + rec.dtype +
                         ", expected f32");
    } else if (got != static_cast<std::size_t>(numel)) {
      problems.push_back("record \"" + name + "\" has " +
                         std::to_string(got) + " elements, manifest implies " +
                         std::to_string(numel));
    }
  };
  const std::vector<std::string> families = record_families(man.masters);
  for (const parallel::ShardedSetDesc& set : man.layout.sets) {
    const std::int64_t n = set.shard_size(man.mesh.tp, man.mesh.fsdp);
    for (const std::string& fam : families) expect(fam + set.record_name(), n);
  }
  for (const parallel::ReplicatedDesc& rep : man.layout.replicated) {
    std::int64_t n = 1;
    for (std::int64_t d : rep.shape) n *= d;
    for (const std::string& fam : families) expect(fam + rep.name, n);
  }
  for (const char* scalar : kScalarRecords) expect(scalar, -1);
  if (man.rng) expect(kRngRecord, -1);
  return problems;
}

Manifest build_manifest(DistributedOrbitModel& m) {
  Manifest man;
  man.mesh =
      MeshShape{m.mesh().ddp_size, m.mesh().fsdp_size, m.mesh().tp_size};
  man.step = m.step();
  man.masters = m.mixed_precision();
  // RNG attachment is uniform across ranks (every rank either feeds its
  // shard's stream through attach_rng or none does), so rank 0's view
  // speaks for the generation.
  man.rng = m.attached_rng() != nullptr;
  man.layout = m.shard_layout();
  return man;
}

void load_resharded(const std::string& prefix, DistributedOrbitModel& m) {
  const auto t0 = std::chrono::steady_clock::now();
  const Manifest man = read_manifest(prefix + ".meta");
  const HybridMesh& mesh = m.mesh();
  const MeshShape tgt{mesh.ddp_size, mesh.fsdp_size, mesh.tp_size};

  // --- Plan validation: the whole cross-mesh mapping must be proven
  // satisfiable before a single byte is read or written. ------------------
  const parallel::ShardLayout want = m.shard_layout();
  const auto unsat = [&](const std::string& what) {
    throw MeshUnsatisfiableError(
        "reshard: checkpoint (mesh " + man.mesh.str() +
        ") cannot be loaded on mesh " + tgt.str() + ": " + what);
  };
  if (man.masters != m.mixed_precision()) {
    unsat(man.masters
              ? "checkpoint carries f32 masters but the target model is not "
                "mixed-precision"
              : "target model is mixed-precision but the checkpoint carries "
                "no masters");
  }
  if (man.layout.sets.size() != want.sets.size()) {
    unsat("checkpoint has " + std::to_string(man.layout.sets.size()) +
          " sharded sets, target model has " +
          std::to_string(want.sets.size()) + " (different architecture)");
  }
  for (std::size_t i = 0; i < want.sets.size(); ++i) {
    const parallel::ShardedSetDesc& a = man.layout.sets[i];
    const parallel::ShardedSetDesc& b = want.sets[i];
    if (a.name != b.name || a.members.size() != b.members.size()) {
      unsat("set " + std::to_string(i) + " is \"" + a.name +
            "\" in the checkpoint but \"" + b.name + "\" in the target");
    }
    for (std::size_t j = 0; j < b.members.size(); ++j) {
      const parallel::SliceDesc& ma = a.members[j];
      const parallel::SliceDesc& mb = b.members[j];
      if (ma.logical != mb.logical || ma.axis != mb.axis ||
          ma.full_shape != mb.full_shape) {
        unsat("member \"" + ma.logical + "\" of set \"" + a.name +
              "\" disagrees with the target's \"" + mb.logical + "\" " +
              shape_str(mb.full_shape));
      }
      if (!mb.divisible_by(tgt.tp)) {
        unsat("member \"" + mb.logical + "\" " + shape_str(mb.full_shape) +
              " does not divide along axis " + std::to_string(mb.axis) +
              " into tp=" + std::to_string(tgt.tp) + " slices");
      }
    }
  }
  if (man.layout.replicated.size() != want.replicated.size()) {
    unsat("checkpoint has " +
          std::to_string(man.layout.replicated.size()) +
          " replicated params, target model has " +
          std::to_string(want.replicated.size()));
  }
  for (std::size_t i = 0; i < want.replicated.size(); ++i) {
    const parallel::ReplicatedDesc& a = man.layout.replicated[i];
    const parallel::ReplicatedDesc& b = want.replicated[i];
    if (a.name != b.name || a.shape != b.shape) {
      unsat("replicated param \"" + a.name + "\" " + shape_str(a.shape) +
            " disagrees with the target's \"" + b.name + "\" " +
            shape_str(b.shape));
    }
  }
  if (m.attached_rng() != nullptr && !man.rng) {
    throw ManifestIncompleteError(
        "reshard: an RNG is attached but the " + man.mesh.str() +
        " checkpoint under " + prefix +
        " carries no rng.data lineage — it was saved without one");
  }

  // --- Gather + re-slice into a synthetic rank file. All reads validate
  // (CRC, step consistency, record sizes) as they happen; the model stays
  // untouched throughout. ------------------------------------------------
  std::map<int, model::CheckpointData> cache;
  const SourceFiles files = [&](int rank) -> const model::CheckpointData& {
    auto it = cache.find(rank);
    if (it != cache.end()) return it->second;
    const std::string path = rank_file(prefix, rank);
    model::CheckpointData data;
    try {
      data = model::read_checkpoint(path);
    } catch (const std::runtime_error& e) {
      throw CheckpointCorruptionError(std::string("reshard: ") + e.what());
    }
    check_rank_file(data, path, man);
    return cache.emplace(rank, std::move(data)).first->second;
  };
  const model::CheckpointData& rank0 = files(0);
  model::CheckpointData synth;
  const std::vector<std::string> families = record_families(man.masters);
  for (const parallel::ShardedSetDesc& set : want.sets) {
    for (const std::string& fam : families) {
      const std::vector<Tensor> logical = gather_set(files, man, set, fam);
      synth.add_tensor(fam + set.record_name(),
                       reslice_set(set, logical, mesh.t, tgt.tp, mesh.f,
                                   tgt.fsdp));
    }
  }
  for (const parallel::ReplicatedDesc& rep : want.replicated) {
    for (const std::string& fam : families) {
      synth.add_record(rank0.at(fam + rep.name));
    }
  }
  for (const char* scalar : kScalarRecords) synth.add_record(rank0.at(scalar));
  if (m.attached_rng() != nullptr) {
    // RNG lineage: this rank's data shard keeps the saved stream when that
    // lineage existed under the source mesh (TP peers share a stream, so
    // the source carrier is the shard's t=0 rank); a shard index beyond
    // the source's data axis is a freshly-minted lineage and keeps the
    // fresh stream it was constructed with.
    const int shard = mesh.data_shard();
    if (shard < man.mesh.ddp * man.mesh.fsdp) {
      const int src = shard * man.mesh.tp;
      synth.add_record(files(src).at(kRngRecord));
    }
  }

  // --- Transaction boundary: the shared validate-then-apply. A throw above
  // or here leaves everything bitwise intact. -------------------------------
  apply_train_state(synth, prefix, m, RngRule::kIfSaved);

  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  telemetry::Registry::global()
      .histogram("reshard_duration_ms", {},
                 "wall time of cross-mesh checkpoint loads (per rank)")
      .record(ms);
}

}  // namespace orbit::core::reshard

namespace orbit::core {

std::int64_t latest_checkpoint_step(const std::string& prefix) {
  const std::string path = prefix + ".latest";
  std::ifstream is(path);
  if (!is) return -1;
  const std::int64_t step = reshard::read_kv(is, path, "step");
  if (step < 0) reshard::corrupt(path, "negative step");
  return step;
}

void load_sharded_checkpoint(const std::string& prefix,
                             DistributedOrbitModel& m) {
  const HybridMesh& mesh = m.mesh();
  const reshard::Manifest man = reshard::read_sidecar(prefix + ".meta");
  const reshard::MeshShape here{mesh.ddp_size, mesh.fsdp_size, mesh.tp_size};
  if (man.mesh != here) {
    // Cross-mesh resume: a v3 generation carries the full manifest, so the
    // resharding loader can gather-by-name and re-slice for this mesh.
    // Pre-manifest metadata records only the factorization — nothing to
    // reshard from, and that is a metadata limitation, not a mesh one.
    if (man.version >= 3) {
      reshard::load_resharded(prefix, m);
      return;
    }
    throw reshard::ManifestIncompleteError(
        "sharded checkpoint: mesh mismatch — checkpoint was written with "
        "mesh " + man.mesh.str() + " but this run is " + here.str() +
        ", and v" + std::to_string(man.version) +
        " metadata carries no manifest to reshard from (re-save on the "
        "original mesh to upgrade to v3)");
  }
  // Same mesh: this rank's own file is all it reads.
  const std::string path = reshard::rank_file(prefix, mesh.global_rank());
  const model::CheckpointData data = model::read_checkpoint(path);
  if (!data.contains(reshard::kOptStepRecord)) {
    // v1-era / param-only file: weights restore read-only, optimizer cold.
    const std::vector<model::Param*> params = m.all_params();
    model::check_params(data, params);
    model::apply_params(data, params);
    return;
  }
  reshard::check_rank_file(data, path, man);
  reshard::apply_train_state(data, path, m, reshard::RngRule::kRequire);
}

}  // namespace orbit::core
