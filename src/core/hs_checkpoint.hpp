#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed_model.hpp"
#include "model/checkpoint_io.hpp"

/// \file hs_checkpoint.hpp
/// Sharded **training-state** checkpointing for distributed runs —
/// checkpoint format v2 applied per rank. Each rank writes its own file
/// (`<prefix>.rank<R>.bin`) holding everything that must survive a crash
/// for the resumed run to be bitwise identical to an uninterrupted one:
/// parameter shards and replicated params, the sharded Adam moments (and
/// bf16 masters), the global step, the learning rate, the grad-scaler
/// state, and this rank's data-RNG state when one is attached. Rank 0
/// additionally writes `<prefix>.meta` recording the mesh factorization
/// and the step.
///
/// Atomicity protocol (what makes a mid-save crash harmless):
///  1. barrier — every rank finished the step being checkpointed;
///  2. every rank writes its file via tmp + rename (see checkpoint_io);
///  3. barrier — all rank files are durable;
///  4. rank 0 writes the metadata via tmp + rename;
///  5. barrier — no rank returns before the save is fully committed.
/// The periodic trainer path (`save_step_checkpoint`) writes each save to
/// a fresh generation prefix (`<prefix>.step<N>`) and only then commits it
/// by atomically rewriting the `<prefix>.latest` pointer file — a crash at
/// *any* point leaves the previous committed generation loadable, and a
/// torn generation (some ranks new, some old) is detected on load because
/// every rank file's recorded step must equal the metadata's.
///
/// Metadata versions: v3 (current) metadata is the full reshard manifest
/// (core/reshard.hpp) — mesh factorization, step, masters/RNG flags, and
/// the mesh-independent shard layout — so a committed generation can be
/// loaded on a *different* mesh via the resharding loader. v2 metadata
/// (factorization + step only) still loads on the identical mesh; a
/// cross-mesh load of it raises `reshard::ManifestIncompleteError`. The
/// format is owned by core/reshard: one sidecar reader for every version,
/// and one validate-then-apply that both loaders end in. The loaders and
/// the `.latest` reader are defined in reshard.cpp, saving and retention
/// in hs_checkpoint.cpp.
///
/// Legacy: v1 checkpoints (param-only rank files, "v1" metadata header)
/// still load read-only — weights restored, optimizer left cold.

namespace orbit::core {

/// Assemble this rank's complete training state as checkpoint records
/// (the exact content `save_sharded_checkpoint` persists). Exposed so
/// tests can compare two runs' states bitwise, record by record.
model::CheckpointData collect_train_state(DistributedOrbitModel& m);

/// Write this rank's full training state (steps 1–5 above). Collective:
/// every rank of the world must call it.
void save_sharded_checkpoint(const std::string& prefix,
                             DistributedOrbitModel& m);

/// Restore this rank's state. Validates the metadata (hardened parser:
/// corrupt or truncated metadata is reported as such, never as a bogus
/// mesh mismatch), the mesh factorization, and the entire rank file
/// against the model and optimizer *before* touching anything — a failed
/// load of any kind leaves model, optimizer, scaler, step, and RNG
/// bitwise unmodified. Full-state files restore everything; v1/param-only
/// files restore weights read-only. When the saved mesh differs from the
/// model's and the metadata is a v3 manifest, the load transparently
/// delegates to `reshard::load_resharded` (same transactional contract);
/// pre-manifest metadata raises `reshard::ManifestIncompleteError`.
void load_sharded_checkpoint(const std::string& prefix,
                             DistributedOrbitModel& m);

/// One committed generation save: write `<prefix>.step<N>.*` via
/// `save_sharded_checkpoint`, then rank 0 atomically rewrites
/// `<prefix>.latest` to point at it. When `keep_last` > 0, rank 0 then
/// prunes all but the newest `keep_last` generations (the committed one is
/// never pruned), so soak tests and long runs don't accumulate unbounded
/// checkpoint files. Collective. Called by
/// `DistributedOrbitModel::train_step` when periodic checkpointing is
/// configured.
void save_step_checkpoint(const std::string& prefix,
                          DistributedOrbitModel& m, int keep_last = 0);

/// Step of the last committed generation under `prefix`, or -1 when no
/// `<prefix>.latest` exists. Throws `reshard::CheckpointCorruptionError`
/// (a std::runtime_error) when the pointer file exists but is corrupt —
/// including a negative step.
std::int64_t latest_checkpoint_step(const std::string& prefix);

/// Steps of every generation `<prefix>.step<K>` present on disk (committed
/// or torn — anything with a metadata or rank file), ascending. A K too
/// long for int64 is not a generation and is ignored. The supervisor's
/// progress introspection and the pruner's inventory.
std::vector<std::int64_t> list_checkpoint_steps(const std::string& prefix);

/// Newest generation that looks fully committed from disk alone: readable
/// metadata whose recorded step matches the generation number, and a rank
/// file for every rank of the recorded mesh. Returns -1 when none exists.
/// The supervisor's fallback probe when the `<prefix>.latest` pointer is
/// corrupt — torn and damaged generations are skipped, never thrown on.
std::int64_t newest_intact_step(const std::string& prefix);

/// Delete on-disk generations, keeping the newest `keep_last` plus —
/// always — the generation `<prefix>.latest` points at (a committed
/// checkpoint must stay loadable no matter how aggressive the retention).
/// Mesh-aware for elastic histories: surviving generations are also
/// stripped of rank files beyond their metadata's recorded world size
/// (stale leftovers of a pre-shrink mesh). Returns the number of
/// generations removed. Not collective: call from one rank (rank 0) only.
int prune_checkpoints(const std::string& prefix, int keep_last);

/// Resume from the last committed generation: load
/// `<prefix>.step<N>` where N comes from `<prefix>.latest`. Collective.
/// Returns the restored step. Throws when no committed checkpoint exists.
std::int64_t resume_from_latest(const std::string& prefix,
                                DistributedOrbitModel& m);

/// Resume when a committed generation exists, start fresh otherwise: the
/// supervised-restart entry point. Returns the restored step, or 0 when
/// there is no committed checkpoint (model left untouched). Collective.
std::int64_t resume_if_available(const std::string& prefix,
                                 DistributedOrbitModel& m);

}  // namespace orbit::core
