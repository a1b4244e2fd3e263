#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/checkpoint_io.hpp"
#include "parallel/shard_desc.hpp"

/// \file reshard.hpp
/// `orbit::core::reshard` — the sharded-generation format and the
/// mesh-reshardable checkpoint loader. Everything that knows the on-disk
/// format is here: rank-file naming, the one `<prefix>.meta` reader (v1,
/// v2 and v3), the record vocabulary and the rank-file check. reshard.cpp
/// also defines the `.latest` reader and the same-mesh loader declared in
/// core/hs_checkpoint.hpp; both loaders end in one load transaction.
///
/// At ORBIT's headline scale mean-time-to-failure is shorter than the job,
/// and waiting for replacement capacity is the expensive failure mode: the
/// production answer is to resume on whatever mesh is still healthy. A v3
/// sharded checkpoint therefore carries a full **manifest** (DESIGN.md
/// §4j): the mesh factorization, the step, and the mesh-independent
/// `parallel::ShardLayout` — every sharded set's member logical tensors,
/// global shapes, TP slice axes and pack order, plus every replicated
/// param's shape — from which any rank's slice extents on any mesh are
/// derivable (every division is deterministic and equal).
///
/// `load_resharded` maps a generation saved on mesh (D, F, T) onto a model
/// running on mesh (D', F', T'):
///  1. parse + validate the manifest against the target model's own
///     `shard_layout()` (typed errors below);
///  2. **gather by name**: per set and per source TP rank t, concatenate
///     the F FSDP shards of `<set>.shard` into the flat buffer, unpack the
///     members' TP slices by pack-order offset, and concat the T slices
///     along each member's slice axis — yielding the logical tensors (the
///     same reassembly runs for values, `adamw.m:`/`adamw.v:` moments, and
///     bf16 `adamw.master:` records);
///  3. **re-slice**: cut each logical tensor for the target rank's TP
///     coordinate, re-pack flat (zero padding — the pad region is zero in
///     values, moments, and masters alike), extract the target FSDP shard,
///     and synthesise exactly the rank file a native (D', F', T') save
///     would have written;
///  4. validate the synthesised state against model + optimizer, then
///     apply — the load is transactional: any failure anywhere leaves
///     model, optimizer, scaler, step, and RNG bitwise untouched.
///
/// RNG lineage: data-RNG streams are keyed by data-shard index
/// s = d·F + f (TP peers share one stream). A target shard s' restores the
/// saved stream s' when s' existed under the source mesh and keeps its
/// fresh stream otherwise (growing the data axis mints new lineages; the
/// manifest records which lineages exist).

namespace orbit::core {

class DistributedOrbitModel;

namespace reshard {

/// Base of the loader's typed error hierarchy — every failure mode is one
/// of the three subclasses, so supervisors and operators can distinguish
/// "this checkpoint cannot drive a cross-mesh load" from "this mesh cannot
/// host it" from "the bytes are damaged".
class ReshardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The metadata lacks the manifest a cross-mesh load needs: a pre-v3
/// (v1/v2) sidecar, or a v3 manifest missing lineage the target requires
/// (e.g. no RNG records when the target has an RNG attached).
class ManifestIncompleteError : public ReshardError {
 public:
  using ReshardError::ReshardError;
};

/// The manifest is complete but the target mesh/model cannot host it:
/// slice axes not divisible by the target TP, a different architecture
/// (set/member/replicated names or shapes), or a masters/mixed-precision
/// disagreement.
class MeshUnsatisfiableError : public ReshardError {
 public:
  using ReshardError::ReshardError;
};

/// The manifest parsed but the bytes behind it are damaged: unreadable or
/// CRC-failing rank files, missing records, wrong record sizes, or a torn
/// generation (a rank file's step disagreeing with the manifest's).
class CheckpointCorruptionError : public ReshardError {
 public:
  using ReshardError::ReshardError;
};

/// The one mesh-size rule: every factor ≥ 1 and ddp·fsdp·tp ≤ 2^20.
/// `parse_mesh_shape` (and so `ORBIT_ELASTIC_SHAPES`) and the sidecar
/// reader both enforce it, so no parsed mesh can overflow `world()`.
inline constexpr std::int64_t kMaxMeshWorld = std::int64_t{1} << 20;

/// A (DDP, FSDP, TP) mesh factorization — the unit the elastic supervisor
/// shrinks over and the manifest records.
struct MeshShape {
  int ddp = 1;
  int fsdp = 1;
  int tp = 1;

  int world() const { return ddp * fsdp * tp; }
  /// "DxFxT", e.g. "2x2x1".
  std::string str() const;
  bool operator==(const MeshShape& o) const {
    return ddp == o.ddp && fsdp == o.fsdp && tp == o.tp;
  }
  bool operator!=(const MeshShape& o) const { return !(*this == o); }
};

/// Parse "DxFxT" (e.g. "2x2x1") under the mesh-size rule above. Throws
/// std::invalid_argument naming the bad text.
MeshShape parse_mesh_shape(const std::string& text);

/// The `ORBIT_ELASTIC_SHAPES` knob: a comma-separated ordered fallback
/// list, e.g. "2x2x1,1x2x1". Returns the parsed list, empty when the
/// variable is unset. Malformed values raise env::EnvError naming the
/// variable and the offending value (strict orbit::env contract).
std::vector<MeshShape> elastic_shapes_from_env();

/// Everything a `<prefix>.meta` sidecar records.
struct Manifest {
  /// Header version: v1 (param-only era) records only `mesh`, v2 (full
  /// training state) adds `step`, v3 adds the rest.
  int version = 3;
  MeshShape mesh;          ///< factorization the generation was saved on
  std::int64_t step = -1;  ///< committed step
  bool masters = false;    ///< `adamw.master:` records present (bf16 mode)
  bool rng = false;        ///< per-data-shard `rng.data` lineage present
  parallel::ShardLayout layout;
};

/// Serialise a manifest to the v3 sidecar text (rank 0's save path).
std::string manifest_text(const Manifest& m);

/// The one sidecar reader: parse a v1, v2 or v3 `<prefix>.meta`. Throws
/// CheckpointCorruptionError ("corrupt metadata ...") for anything
/// structurally wrong, a mesh outside kMaxMeshWorld included, and
/// std::runtime_error when the file is missing.
Manifest read_sidecar(const std::string& path);

/// `read_sidecar` plus the version check a cross-mesh load needs: a v1/v2
/// sidecar (mesh-welded, no manifest) raises ManifestIncompleteError.
Manifest read_manifest(const std::string& path);

/// `<prefix>.rank<R>.bin`: global rank R's file of generation `prefix`.
std::string rank_file(const std::string& prefix, int rank);

/// Rank-file record vocabulary: every parameter under each of
/// `record_families(masters)`, the scalars in `kScalarRecords` order
/// (`adamw.t` comes from the optimizer's `export_state`), then `rng.data`
/// when an RNG is attached.
inline constexpr char kOptStepRecord[] = "adamw.t";
inline constexpr char kStepRecord[] = "train.step";
inline constexpr char kLrRecord[] = "train.lr";
inline constexpr char kScaleRecord[] = "scaler.scale";
inline constexpr char kStreakRecord[] = "scaler.streak";
inline constexpr char kSkippedRecord[] = "scaler.skipped";
inline constexpr char kRngRecord[] = "rng.data";
inline constexpr std::array<const char*, 6> kScalarRecords = {
    kOptStepRecord, kStepRecord,  kLrRecord,
    kScaleRecord,   kStreakRecord, kSkippedRecord};

/// Prefixes every parameter is saved under: values, Adam moments and (bf16
/// mode) f32 masters. Each shards identically, so one gather serves all.
std::vector<std::string> record_families(bool masters);

/// The one rank-file check: every way `data` fails to be a member of
/// generation `man` — no full-state marker (`adamw.t`, `train.step`), a
/// step other than the committed one (a torn generation) and, against a
/// v3 layout, any record missing or of the wrong size. Empty when
/// consistent. Both loaders throw the first problem as
/// CheckpointCorruptionError; `ckpt_inspect --verify` prints them all.
std::vector<std::string> rank_file_problems(const model::CheckpointData& data,
                                            const Manifest& man);

/// Build the manifest describing `m`'s state at its current step.
Manifest build_manifest(DistributedOrbitModel& m);

/// Cross-mesh transactional load of generation `prefix` into `m` (steps
/// 1–4 above). Collective only in the trivial sense — every rank reads the
/// source files it needs independently; no communication happens. Called
/// by `load_sharded_checkpoint` whenever the saved mesh differs from the
/// model's; callable directly for same-mesh round-trip tests.
void load_resharded(const std::string& prefix, DistributedOrbitModel& m);

}  // namespace reshard
}  // namespace orbit::core
