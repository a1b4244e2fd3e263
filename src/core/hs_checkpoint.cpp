#include "core/hs_checkpoint.hpp"

#include <charconv>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "comm/fault.hpp"
#include "core/reshard.hpp"

namespace orbit::core {
namespace {

namespace fs = std::filesystem;
using reshard::rank_file;

std::string meta_file(const std::string& prefix) { return prefix + ".meta"; }

std::string latest_file(const std::string& prefix) {
  return prefix + ".latest";
}

std::string step_prefix(const std::string& prefix, std::int64_t step) {
  return prefix + ".step" + std::to_string(step);
}

/// One directory entry named `<filename(stem)><digits><rest>`.
struct Numbered {
  std::int64_t n;
  std::string rest;
  fs::path path;
};

/// The one `<stem><digits>` walk over `stem`'s directory — generations
/// (`<prefix>.step<N>.*`) and rank files (`<gen>.rank<R>.bin`). A digit run
/// that does not fit in int64 is skipped, never wrapped. The listing is
/// complete before it returns, so callers may unlink what it names
/// (unlinking during directory iteration can make the iterator skip).
std::vector<Numbered> scan_numbered(const std::string& stem) {
  const fs::path p(stem);
  fs::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const std::string base = p.filename().string();
  std::vector<Numbered> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= base.size() || name.rfind(base, 0) != 0) continue;
    const char* first = name.data() + base.size();
    const char* last = name.data() + name.size();
    std::int64_t n = 0;
    const auto [end, err] = std::from_chars(first, last, n);
    if (*first < '0' || *first > '9' || err != std::errc()) continue;
    found.push_back({n, std::string(end, last), entry.path()});
  }
  return found;
}

/// Delete `<prefix>.rank<R>.bin` files with R >= `world` — leftovers of a
/// larger mesh that saved this generation prefix before a shrink. Without
/// this a post-shrink re-save at the same step would strand stale files
/// whose recorded step matches the fresh metadata, indistinguishable on
/// disk from live ones.
void remove_stale_rank_files(const std::string& prefix, int world) {
  std::error_code ec;
  for (const Numbered& f : scan_numbered(prefix + ".rank")) {
    if (f.rest == ".bin" && f.n >= world) fs::remove(f.path, ec);
  }
}

}  // namespace

model::CheckpointData collect_train_state(DistributedOrbitModel& m) {
  model::CheckpointData data;
  for (const model::Param* p : m.all_params()) {
    data.add_tensor(p->name, p->value);
  }
  m.optimizer().export_state(data);
  data.add_i64(reshard::kStepRecord, m.step());
  data.add_f64(reshard::kLrRecord, static_cast<double>(m.optimizer().lr()));
  data.add_f64(reshard::kScaleRecord,
               static_cast<double>(m.scaler().scale()));
  data.add_i64(reshard::kStreakRecord, m.scaler().good_streak());
  data.add_i64(reshard::kSkippedRecord, m.scaler().skipped_steps());
  if (m.attached_rng() != nullptr) {
    model::add_rng_state(data, reshard::kRngRecord, *m.attached_rng());
  }
  return data;
}

void save_sharded_checkpoint(const std::string& prefix,
                             DistributedOrbitModel& m) {
  const HybridMesh& mesh = m.mesh();
  // (1) every rank has finished the step being checkpointed.
  m.world().barrier();
  // Fault-injection point, deliberately mid-save: peers past the barrier
  // may already have written their files, but the generation cannot have
  // committed — a kill here must leave the previous `.latest` loadable.
  comm::fault::on_checkpoint_save(mesh.global_rank(), m.step());
  model::write_checkpoint(rank_file(prefix, mesh.global_rank()),
                          collect_train_state(m));
  // (3) all rank files are durable before the metadata commits them.
  m.world().barrier();
  if (mesh.global_rank() == 0) {
    // v3 metadata is the full reshard manifest (core/reshard.hpp) — same
    // leading lines as v2 plus the mesh-independent shard layout, so this
    // generation can later be loaded on any compatible mesh.
    const reshard::Manifest man = reshard::build_manifest(m);
    model::write_file_atomic(meta_file(prefix), reshard::manifest_text(man));
    // Mixed-shape histories: if a larger mesh saved this prefix earlier
    // (pre-shrink save at the same step), its extra rank files are now
    // stale — drop them so the generation on disk is exactly this mesh's.
    remove_stale_rank_files(prefix, man.mesh.world());
  }
  // (5) nobody returns (and nobody can start a resume) before the commit.
  m.world().barrier();
}

void save_step_checkpoint(const std::string& prefix,
                          DistributedOrbitModel& m, int keep_last) {
  save_sharded_checkpoint(step_prefix(prefix, m.step()), m);
  if (m.mesh().global_rank() == 0) {
    model::write_file_atomic(latest_file(prefix),
                             "step " + std::to_string(m.step()) + "\n");
    if (keep_last > 0) prune_checkpoints(prefix, keep_last);
  }
  // The generation is only "latest" once the pointer rewrite is durable.
  m.world().barrier();
}

std::vector<std::int64_t> list_checkpoint_steps(const std::string& prefix) {
  std::set<std::int64_t> steps;
  for (const Numbered& f : scan_numbered(prefix + ".step")) {
    // `run.step12.meta` is a generation file; `run.step12extra` is not.
    if (!f.rest.empty() && f.rest[0] == '.') steps.insert(f.n);
  }
  return {steps.begin(), steps.end()};
}

std::int64_t newest_intact_step(const std::string& prefix) {
  const std::vector<std::int64_t> steps = list_checkpoint_steps(prefix);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const std::string gen = step_prefix(prefix, *it);
    reshard::Manifest man;
    try {
      man = reshard::read_sidecar(meta_file(gen));
    } catch (const std::exception&) {
      continue;  // missing or corrupt metadata: not a committed generation
    }
    if (man.version >= 2 && man.step != *it) continue;  // misfiled
    bool intact = true;
    std::error_code ec;
    for (int r = 0; r < man.mesh.world() && intact; ++r) {
      intact = fs::exists(rank_file(gen, r), ec);
    }
    if (intact) return *it;
  }
  return -1;
}

int prune_checkpoints(const std::string& prefix, int keep_last) {
  if (keep_last <= 0) {
    throw std::invalid_argument("prune_checkpoints: keep_last must be > 0");
  }
  const std::vector<std::int64_t> steps = list_checkpoint_steps(prefix);
  // Committed generation: protected unconditionally, even when it is older
  // than every survivor (e.g. newer saves crashed before committing).
  std::int64_t committed = -1;
  try {
    committed = latest_checkpoint_step(prefix);
  } catch (const std::runtime_error&) {
    committed = -1;  // corrupt pointer: prune by recency only
  }
  // When nothing is prunable every generation is a survivor — the
  // mesh-aware repair below must still run over all of them.
  const std::size_t keep_from =
      static_cast<int>(steps.size()) <= keep_last
          ? 0
          : steps.size() - static_cast<std::size_t>(keep_last);
  int removed = 0;
  for (std::size_t i = 0; i < keep_from; ++i) {
    if (steps[i] == committed) continue;
    const std::string gen = step_prefix(prefix, steps[i]);
    std::error_code ec;
    fs::remove(meta_file(gen), ec);
    // Rank files: scan rather than trust a world size (tmp leftovers too).
    for (const Numbered& f : scan_numbered(gen + ".rank")) {
      fs::remove(f.path, ec);
    }
    ++removed;
  }
  // Mesh-aware repair of the survivors: a mixed-shape history (elastic
  // shrink, then re-save) can leave a kept generation with rank files from
  // a larger mesh than its metadata records. The save path cleans its own
  // generation; this covers generations whose cleanup was interrupted.
  for (std::size_t i = keep_from; i < steps.size(); ++i) {
    const std::string gen = step_prefix(prefix, steps[i]);
    try {
      remove_stale_rank_files(
          gen, reshard::read_sidecar(meta_file(gen)).mesh.world());
    } catch (const std::exception&) {
      // Torn or corrupt survivor: leave its files for postmortem.
    }
  }
  return removed;
}

std::int64_t resume_from_latest(const std::string& prefix,
                                DistributedOrbitModel& m) {
  const std::int64_t step = latest_checkpoint_step(prefix);
  if (step < 0) {
    throw std::runtime_error(
        "sharded checkpoint: no committed checkpoint under prefix " + prefix +
        " (missing " + latest_file(prefix) + ")");
  }
  load_sharded_checkpoint(step_prefix(prefix, step), m);
  return m.step();
}

std::int64_t resume_if_available(const std::string& prefix,
                                 DistributedOrbitModel& m) {
  return latest_checkpoint_step(prefix) < 0 ? 0 : resume_from_latest(prefix, m);
}

}  // namespace orbit::core
