#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "model/vit.hpp"
#include "telemetry/registry.hpp"
#include "train/grad_scaler.hpp"
#include "train/optimizer.hpp"
#include "train/schedule.hpp"

/// \file trainer.hpp
/// Serial (single-device) training loop. This is the reference
/// implementation the distributed engines are verified against, and the
/// workhorse behind the Fig. 8/9/10 reproduction benches.

namespace orbit::train {

/// One training/evaluation batch.
struct Batch {
  Tensor inputs;     ///< [B, C_in, H, W] normalised fields
  Tensor targets;    ///< [B, C_out, H, W]
  Tensor lead_days;  ///< [B]

  std::int64_t size() const { return inputs.defined() ? inputs.dim(0) : 0; }
};

struct TrainerConfig {
  AdamWConfig adamw;
  /// Global gradient-norm clip; <= 0 disables.
  double clip_norm = 1.0;
  /// BF16 mixed precision: bf16 working weights + dynamic grad scaling.
  bool mixed_precision = false;
  GradScalerConfig scaler;
  /// Optional LR schedule; when unset, AdamWConfig::lr is constant.
  std::optional<LrSchedule> schedule;
  /// Micro-batches accumulated per optimizer step (>= 1). Lets a small
  /// machine train with the paper's large effective batches (e.g. the
  /// fixed global batch of 2880 in Sec. V-E).
  int accumulation_steps = 1;
  /// Periodic full-state checkpointing: every `checkpoint_every` completed
  /// steps the trainer saves to `<checkpoint_prefix>.ckpt` (atomic
  /// replace, so the previous checkpoint survives a crash mid-save).
  /// 0 disables; both fields must be set to enable.
  std::int64_t checkpoint_every = 0;
  std::string checkpoint_prefix;
};

class Trainer {
 public:
  Trainer(model::OrbitModel& m, TrainerConfig cfg);

  /// One optimizer step on `batch`; returns the (unscaled) wMSE loss.
  /// A mixed-precision overflow skips the update but still returns the loss.
  double train_step(const Batch& batch);

  /// One optimizer step over several micro-batches whose gradients are
  /// accumulated, each weighted by its share of the samples, before the
  /// update — equivalent to a single step on their concatenation, whatever
  /// the micro sizes. `micro_batches` must have `accumulation_steps`
  /// entries when that option is set, but any non-empty count is accepted.
  /// Returns the sample-weighted mean loss.
  double train_step_accumulated(const std::vector<Batch>& micro_batches);

  /// wMSE of the current model on `batch` without touching gradients.
  double eval_loss(const Batch& batch);

  const std::vector<double>& loss_history() const { return history_; }
  AdamW& optimizer() { return *opt_; }
  GradScaler& scaler() { return scaler_; }
  std::int64_t steps() const { return step_; }

  /// Register a data/augmentation RNG whose state rides along in every
  /// checkpoint, so a resumed run draws the same stream the uninterrupted
  /// run would have. Optional; the pointer must outlive the trainer.
  void attach_rng(Rng* rng) { rng_ = rng; }

  /// Write the complete training state — params, Adam moments (and bf16
  /// masters), step counter, learning rate, grad-scaler state, attached
  /// RNG — to `path` (checkpoint format v2, atomic).
  void save_checkpoint(const std::string& path) const;

  /// Restore every piece of state saved by `save_checkpoint`, so the
  /// continued run is bitwise identical to one that never stopped. The
  /// whole file is validated against the model and optimizer before
  /// anything is written: on any failure (corruption, shape mismatch,
  /// param-only v1 file) the trainer is left untouched. The loss history
  /// is not checkpointed and restarts empty.
  void resume_from(const std::string& path);

 private:
  /// The one step body: forward, scaled backward of every micro-batch,
  /// then `finish_step`. Returns the sample-weighted mean loss.
  double step_over(std::span<const Batch> micro_batches);
  /// Periodic save when TrainerConfig::checkpoint_every divides step_.
  void maybe_checkpoint() const;
  /// Publish per-step telemetry (step time, throughput, loss).
  void note_step(double loss, std::int64_t samples, std::uint64_t t0_ns);

  model::OrbitModel& model_;
  TrainerConfig cfg_;
  std::unique_ptr<AdamW> opt_;
  GradScaler scaler_;
  Tensor lat_weights_;
  std::vector<double> history_;
  std::int64_t step_ = 0;
  Rng* rng_ = nullptr;

  // Registry instruments (process-global series: several trainers in one
  // process aggregate into the same step/sample totals).
  telemetry::Counter steps_total_;
  telemetry::Counter samples_total_;
  telemetry::Histogram step_ms_;
  telemetry::Gauge loss_gauge_;
  telemetry::Gauge samples_per_s_;
  telemetry::Histogram ckpt_save_ms_;
};

}  // namespace orbit::train
