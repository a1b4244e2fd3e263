#pragma once

#include <functional>
#include <vector>

#include "model/checkpoint_io.hpp"
#include "model/param.hpp"
#include "train/grad_scaler.hpp"

/// \file optimizer.hpp
/// AdamW with FP32 master weights and optional BF16 working weights —
/// the paper's mixed-precision arrangement (Sec. III-B): compute runs on
/// BF16-rounded parameters while the optimizer updates full-precision
/// masters.

namespace orbit::train {

struct AdamWConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
  /// When true, parameter values handed to the model are rounded through
  /// the bf16 grid after every step (masters stay f32).
  bool bf16_params = false;
};

/// Decoupled-weight-decay Adam (Loshchilov & Hutter).
class AdamW {
 public:
  AdamW(std::vector<model::Param*> params, AdamWConfig cfg);

  /// Apply one update from the gradients currently in each param. Does not
  /// zero gradients.
  void step();

  /// Override the learning rate (driven by LrSchedule between steps).
  void set_lr(float lr) { cfg_.lr = lr; }
  float lr() const { return cfg_.lr; }
  std::int64_t steps_taken() const { return t_; }

  /// Scale every gradient by `s` (used by GradScaler::unscale).
  void scale_grads(float s);

  /// True if any gradient contains NaN/inf (overflow detection for the
  /// dynamic grad scaler).
  bool grads_nonfinite() const;

  const std::vector<model::Param*>& params() const { return params_; }

  /// Append the full optimizer state to `out` as reserved-prefix records:
  /// "adamw.t" (step count) plus per-param "adamw.m:<name>",
  /// "adamw.v:<name>", and — in bf16 mode — "adamw.master:<name>". With
  /// these restored, a resumed run's updates are bitwise identical to an
  /// uninterrupted one.
  void export_state(model::CheckpointData& out) const;

  /// Validate that `in` can restore this optimizer: every moment (and
  /// master, when bf16_params is on) present with the param's shape.
  /// Throws std::runtime_error; modifies nothing.
  void check_state(const model::CheckpointData& in) const;

  /// Restore the state exported by `export_state`. Runs `check_state`
  /// first, so a failure leaves the optimizer untouched.
  void import_state(const model::CheckpointData& in);

 private:
  std::vector<model::Param*> params_;
  AdamWConfig cfg_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_, v_;       ///< Adam moments per param
  std::vector<Tensor> master_;      ///< f32 master weights (bf16 mode only)
};

/// Global gradient-norm clipping; returns the pre-clip norm.
double clip_grad_norm(const std::vector<model::Param*>& params,
                      double max_norm);

/// What a training step's optimizer boundary (`finish_step`) is traced as,
/// and the two group reductions it needs. Empty hooks mean one replica holds
/// the whole model (the serial Trainer); the distributed engines supply
/// reductions over their process groups.
struct StepHooks {
  const char* optimizer_span;  ///< static name; encloses the whole boundary
  const char* clip_span;       ///< static name; nested, around clipping
  /// Combine this rank's overflow flag over every rank sharing the update,
  /// so all skip or none do. Empty: the local flag.
  std::function<bool(bool local_overflow)> overflow_vote;
  /// Squared gradient norm of the whole model. Empty: the sum of `sum_sq`
  /// over the optimizer's params.
  std::function<double()> global_sq_norm;
};

/// The optimizer boundary of every training step, after the backward pass
/// (and any grad sync) left the loss-scaled gradients in `opt`'s params.
/// With a `scaler` (mixed precision; the loss was scaled by
/// `scaler->scale()`): unscale, vote on overflow, update the scaler, and on
/// overflow skip the rest. Then clip to the global norm when
/// `clip_norm > 0`, and take the AdamW step. Returns whether the step ran.
bool finish_step(AdamW& opt, GradScaler* scaler, double clip_norm,
                 const StepHooks& hooks);

}  // namespace orbit::train
