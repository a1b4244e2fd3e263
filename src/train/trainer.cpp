#include "train/trainer.hpp"

#include <optional>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "model/checkpoint_io.hpp"
#include "trace/trace.hpp"

namespace orbit::train {

Trainer::Trainer(model::OrbitModel& m, TrainerConfig cfg)
    : model_(m), cfg_(std::move(cfg)), scaler_(cfg_.scaler) {
  AdamWConfig acfg = cfg_.adamw;
  acfg.bf16_params = cfg_.mixed_precision;
  opt_ = std::make_unique<AdamW>(m.params(), acfg);
  lat_weights_ = metrics::latitude_weights(m.config().image_h);

  telemetry::Registry& reg = telemetry::Registry::global();
  steps_total_ =
      reg.counter("train_steps_total", {}, "Completed optimizer steps");
  samples_total_ = reg.counter("train_samples_total", {},
                               "Samples consumed across training steps");
  step_ms_ = reg.histogram("train_step_ms", {},
                           "Wall time of one optimizer step, ms");
  loss_gauge_ = reg.gauge("train_loss", {}, "Loss of the latest step (wMSE)");
  samples_per_s_ = reg.gauge("train_samples_per_s", {},
                             "Throughput of the latest step, samples/s");
  ckpt_save_ms_ = reg.histogram("train_checkpoint_save_ms", {},
                                "Duration of periodic checkpoint saves, ms");
}

void Trainer::note_step(double loss, std::int64_t samples,
                        std::uint64_t t0_ns) {
  const double ms = static_cast<double>(trace::now_ns() - t0_ns) / 1e6;
  steps_total_.inc();
  if (samples > 0) samples_total_.inc(static_cast<std::uint64_t>(samples));
  step_ms_.record(ms);
  loss_gauge_.set(loss);
  if (ms > 0.0 && samples > 0) {
    samples_per_s_.set(static_cast<double>(samples) * 1e3 / ms);
  }
}

double Trainer::train_step(const Batch& batch) {
  return step_over({&batch, 1});
}

double Trainer::train_step_accumulated(const std::vector<Batch>& micro_batches) {
  if (micro_batches.empty()) {
    throw std::invalid_argument("train_step_accumulated: no micro batches");
  }
  return step_over(micro_batches);
}

double Trainer::step_over(std::span<const Batch> micro_batches) {
  ORBIT_TRACE_SPAN("train.step");
  const std::uint64_t t0 = trace::now_ns();
  if (cfg_.schedule) opt_->set_lr(cfg_.schedule->at(step_));
  model_.zero_grad();

  GradScaler* scaler = cfg_.mixed_precision ? &scaler_ : nullptr;
  const float scale = scaler != nullptr ? scaler->scale() : 1.0f;
  std::int64_t samples = 0;
  for (const Batch& mb : micro_batches) samples += mb.size();
  double loss = 0.0;
  for (const Batch& mb : micro_batches) {
    // Each micro backward yields grads normalised by its own batch;
    // weighting by the sample share n_i/N makes their sum the gradient of
    // one step on the concatenation, whatever the micro sizes.
    const float share =
        static_cast<float>(mb.size()) / static_cast<float>(samples);
    Tensor dy;
    {
      ORBIT_TRACE_SPAN("train.forward");
      Tensor pred = model_.forward(mb.inputs, mb.lead_days);
      loss += static_cast<double>(mb.size()) / static_cast<double>(samples) *
              metrics::wmse(pred, mb.targets, lat_weights_);
      dy = metrics::wmse_grad(pred, mb.targets, lat_weights_);
    }
    const float weight = scale * share;
    if (weight != 1.0f) dy.scale_(weight);
    ORBIT_TRACE_SPAN("train.backward");
    model_.backward(dy);
  }

  finish_step(*opt_, scaler, cfg_.clip_norm,
              {"train.optimizer", "train.grad_clip", {}, {}});
  ++step_;
  history_.push_back(loss);
  note_step(loss, samples, t0);
  maybe_checkpoint();
  return loss;
}

void Trainer::save_checkpoint(const std::string& path) const {
  model::CheckpointData data;
  for (const model::Param* p : opt_->params()) {
    data.add_tensor(p->name, p->value);
  }
  opt_->export_state(data);
  data.add_i64("train.step", step_);
  data.add_f64("train.lr", static_cast<double>(opt_->lr()));
  data.add_f64("scaler.scale", static_cast<double>(scaler_.scale()));
  data.add_i64("scaler.streak", scaler_.good_streak());
  data.add_i64("scaler.skipped", scaler_.skipped_steps());
  if (rng_ != nullptr) model::add_rng_state(data, "rng.data", *rng_);
  model::write_checkpoint(path, data);
}

void Trainer::resume_from(const std::string& path) {
  const model::CheckpointData data = model::read_checkpoint(path);
  // Validate everything — params, optimizer records, every scalar — before
  // mutating anything, so a failed resume leaves the trainer untouched.
  model::check_params(data, opt_->params());
  opt_->check_state(data);
  const std::int64_t step = data.i64("train.step");
  const double lr = data.f64("train.lr");
  const double scale = data.f64("scaler.scale");
  const std::int64_t streak = data.i64("scaler.streak");
  const std::int64_t skipped = data.i64("scaler.skipped");
  // Decode into a copy so a damaged rng.data throws before any mutation.
  std::optional<Rng> stream;
  if (rng_ != nullptr) {
    if (!data.contains("rng.data")) {
      throw std::runtime_error(
          "checkpoint: an RNG is attached but " + path +
          " carries no rng.data record — it was saved without one");
    }
    stream = *rng_;
    model::read_rng_state(data, "rng.data", *stream);
  }

  model::apply_params(data, opt_->params());
  opt_->import_state(data);
  opt_->set_lr(static_cast<float>(lr));
  scaler_.set_state(static_cast<float>(scale), streak, skipped);
  step_ = step;
  if (stream.has_value()) *rng_ = *stream;
  history_.clear();
}

void Trainer::maybe_checkpoint() const {
  if (cfg_.checkpoint_every <= 0 || cfg_.checkpoint_prefix.empty()) return;
  if (step_ % cfg_.checkpoint_every != 0) return;
  ORBIT_TRACE_SPAN("train.checkpoint");
  const std::uint64_t t0 = trace::now_ns();
  save_checkpoint(cfg_.checkpoint_prefix + ".ckpt");
  ckpt_save_ms_.record(static_cast<double>(trace::now_ns() - t0) / 1e6);
}

double Trainer::eval_loss(const Batch& batch) {
  Tensor pred = model_.forward(batch.inputs, batch.lead_days);
  return metrics::wmse(pred, batch.targets, lat_weights_);
}

}  // namespace orbit::train
