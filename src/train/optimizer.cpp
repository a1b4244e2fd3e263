#include "train/optimizer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/bf16.hpp"
#include "tensor/ops.hpp"
#include "trace/trace.hpp"

namespace orbit::train {

AdamW::AdamW(std::vector<model::Param*> params, AdamWConfig cfg)
    : params_(std::move(params)), cfg_(cfg) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const model::Param* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
    if (cfg_.bf16_params) master_.push_back(p->value.clone());
  }
}

void AdamW::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    model::Param& p = *params_[i];
    float* master =
        cfg_.bf16_params ? master_[i].data() : p.value.data();
    float* value = p.value.data();
    const float* g = p.grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (std::int64_t j = 0; j < p.numel(); ++j) {
      m[j] = cfg_.beta1 * m[j] + (1.0f - cfg_.beta1) * g[j];
      v[j] = cfg_.beta2 * v[j] + (1.0f - cfg_.beta2) * g[j] * g[j];
      const float mhat = m[j] / static_cast<float>(bc1);
      const float vhat = v[j] / static_cast<float>(bc2);
      // Decoupled weight decay on the master weights.
      master[j] -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) +
                              cfg_.weight_decay * master[j]);
      if (cfg_.bf16_params) {
        value[j] = bf16_round(master[j]);
      }
    }
  }
}

void AdamW::export_state(model::CheckpointData& out) const {
  out.add_i64("adamw.t", t_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const std::string& name = params_[i]->name;
    out.add_tensor("adamw.m:" + name, m_[i]);
    out.add_tensor("adamw.v:" + name, v_[i]);
    if (cfg_.bf16_params) out.add_tensor("adamw.master:" + name, master_[i]);
  }
}

void AdamW::check_state(const model::CheckpointData& in) const {
  if (!in.contains("adamw.t")) {
    throw std::runtime_error(
        "checkpoint: no optimizer state (param-only file?) — resume needs a "
        "full training-state checkpoint");
  }
  (void)in.i64("adamw.t");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const std::string& name = params_[i]->name;
    for (const char* kind : {"adamw.m:", "adamw.v:"}) {
      const model::CheckpointRecord& rec = in.at(kind + name);
      if (rec.dtype != "f32" || rec.shape != params_[i]->value.shape()) {
        throw std::runtime_error("checkpoint: optimizer record " +
                                 (kind + name) +
                                 " does not match param shape");
      }
    }
    if (cfg_.bf16_params) {
      const model::CheckpointRecord& rec = in.at("adamw.master:" + name);
      if (rec.dtype != "f32" || rec.shape != params_[i]->value.shape()) {
        throw std::runtime_error(
            "checkpoint: master-weight record for " + name +
            " does not match param shape");
      }
    }
  }
}

void AdamW::import_state(const model::CheckpointData& in) {
  check_state(in);
  t_ = in.i64("adamw.t");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const std::string& name = params_[i]->name;
    in.read_tensor("adamw.m:" + name, m_[i]);
    in.read_tensor("adamw.v:" + name, v_[i]);
    if (cfg_.bf16_params) in.read_tensor("adamw.master:" + name, master_[i]);
  }
}

void AdamW::scale_grads(float s) {
  for (model::Param* p : params_) p->grad.scale_(s);
}

bool AdamW::grads_nonfinite() const {
  for (const model::Param* p : params_) {
    if (has_nonfinite(p->grad)) return true;
  }
  return false;
}

namespace {

double local_sq_norm(const std::vector<model::Param*>& params) {
  double total = 0.0;
  for (const model::Param* p : params) total += sum_sq(p->grad);
  return total;
}

/// Scale `params`' grads down to norm `max_norm` given their squared norm.
double clip_to(const std::vector<model::Param*>& params, double total_sq,
               double max_norm) {
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm && norm > 0.0) {
    const float s = static_cast<float>(max_norm / norm);
    for (model::Param* p : params) p->grad.scale_(s);
  }
  return norm;
}

}  // namespace

double clip_grad_norm(const std::vector<model::Param*>& params,
                      double max_norm) {
  return clip_to(params, local_sq_norm(params), max_norm);
}

bool finish_step(AdamW& opt, GradScaler* scaler, double clip_norm,
                 const StepHooks& hooks) {
  ORBIT_TRACE_SPAN(hooks.optimizer_span, trace::Category::kOptimizer);
  if (scaler != nullptr) {
    opt.scale_grads(1.0f / scaler->scale());
    const bool local = opt.grads_nonfinite();
    const bool overflow = hooks.overflow_vote ? hooks.overflow_vote(local)
                                              : local;
    if (!scaler->update(overflow)) return false;
  }
  if (clip_norm > 0.0) {
    ORBIT_TRACE_SPAN(hooks.clip_span, trace::Category::kOptimizer);
    const double total_sq = hooks.global_sq_norm
                                ? hooks.global_sq_norm()
                                : local_sq_norm(opt.params());
    clip_to(opt.params(), total_sq, clip_norm);
  }
  opt.step();
  return true;
}

}  // namespace orbit::train
