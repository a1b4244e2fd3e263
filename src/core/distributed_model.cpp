#include "core/distributed_model.hpp"

#include <stdexcept>

#include "comm/fault.hpp"
#include "core/hs_checkpoint.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace orbit::core {

DistributedOrbitModel::DistributedOrbitModel(const model::VitConfig& cfg,
                                             comm::RankContext& ctx,
                                             DistributedTrainerConfig tcfg)
    : cfg_(std::move(tcfg)),
      mesh_(HybridMesh::build(ctx, cfg_.engine.ddp, cfg_.engine.fsdp,
                              cfg_.engine.tp)),
      world_(ctx.world_group()),
      scaler_(cfg_.engine.scaler) {
  replicated_ = std::make_unique<model::OrbitModel>(cfg);
  hs_tower_ = std::make_unique<HsTower>(replicated_->tower(), cfg,
                                        mesh_.tp_group, mesh_.fsdp_group,
                                        cfg_.engine.options);
  train::AdamWConfig acfg = cfg_.engine.adamw;
  acfg.bf16_params = cfg_.engine.mixed_precision;
  opt_ = std::make_unique<train::AdamW>(all_params(), acfg);
  lat_weights_ = metrics::latitude_weights(cfg.image_h);
}

std::vector<model::Param*> DistributedOrbitModel::replicated_params() {
  std::vector<model::Param*> out;
  replicated_->patch_embed().collect_params(out);
  replicated_->aggregation().collect_params(out);
  replicated_->pos_lead().collect_params(out);
  replicated_->head().collect_params(out);
  for (model::Param* p : hs_tower_->replicated_params()) out.push_back(p);
  return out;
}

parallel::ShardLayout DistributedOrbitModel::shard_layout() {
  parallel::ShardLayout layout;
  layout.sets = hs_tower_->set_descs();
  for (model::Param* p : replicated_params()) {
    layout.replicated.push_back(parallel::ReplicatedDesc{p->name,
                                                         p->value.shape()});
  }
  return layout;
}

std::vector<model::Param*> DistributedOrbitModel::all_params() {
  std::vector<model::Param*> out = hs_tower_->shard_params();
  for (model::Param* p : replicated_params()) out.push_back(p);
  return out;
}

Tensor DistributedOrbitModel::forward(const Tensor& x,
                                      const Tensor& lead_days) {
  Tensor tokens = replicated_->patch_embed().forward(x);
  Tensor aggregated = replicated_->aggregation().forward(tokens);
  Tensor conditioned = replicated_->pos_lead().forward(aggregated, lead_days);
  Tensor features = hs_tower_->forward(conditioned);
  return replicated_->head().forward(features);
}

void DistributedOrbitModel::backward(const Tensor& dy) {
  Tensor d = replicated_->head().backward(dy);
  d = hs_tower_->backward(d);
  d = replicated_->pos_lead().backward(d);
  d = replicated_->aggregation().backward(d);
  (void)replicated_->patch_embed().backward(d);
}

void DistributedOrbitModel::sync_grads() {
  sync_mesh_grads(mesh_, hs_tower_->shard_params(), replicated_params());
}

void DistributedOrbitModel::zero_grad() {
  hs_tower_->zero_grad();
  for (model::Param* p : replicated_params()) p->zero_grad();
}

double DistributedOrbitModel::train_step(const train::Batch& batch) {
  ORBIT_TRACE_SPAN("hs.step");
  if (cfg_.schedule) opt_->set_lr(cfg_.schedule->at(step_));
  zero_grad();

  Tensor dy;
  double local_loss = 0.0;
  {
    ORBIT_TRACE_SPAN("hs.forward");
    Tensor pred = forward(batch.inputs, batch.lead_days);
    local_loss = metrics::wmse(pred, batch.targets, lat_weights_);
    dy = metrics::wmse_grad(pred, batch.targets, lat_weights_);
  }
  const float s = cfg_.engine.mixed_precision ? scaler_.scale() : 1.0f;
  if (s != 1.0f) dy.scale_(s);
  {
    ORBIT_TRACE_SPAN("hs.backward");
    backward(dy);
  }
  // Step-triggered fault-injection point, deliberately mid-step: the
  // victim dies with local work done but nothing synchronised, so peers
  // are killed off inside sync_grads by peer-exit detection and the step
  // is lost on every rank — exactly a node crash at Frontier scale.
  comm::fault::on_train_step(mesh_.global_rank(), step_);
  const std::vector<model::Param*> shard = hs_tower_->shard_params();
  const std::vector<model::Param*> replicated = replicated_params();
  sync_mesh_grads(mesh_, shard, replicated);
  train::finish_step(*opt_, cfg_.engine.mixed_precision ? &scaler_ : nullptr,
                     cfg_.clip_norm,
                     mesh_step_hooks(mesh_, world_, shard, replicated));
  ++step_;
  if (cfg_.checkpoint_every > 0 && !cfg_.checkpoint_prefix.empty() &&
      step_ % cfg_.checkpoint_every == 0) {
    ORBIT_TRACE_SPAN("hs.checkpoint");
    save_step_checkpoint(cfg_.checkpoint_prefix, *this,
                         cfg_.checkpoint_keep_last);
  }
  return data_group_mean(mesh_, local_loss);
}

std::int64_t DistributedOrbitModel::resume_latest() {
  if (cfg_.checkpoint_prefix.empty()) {
    throw std::logic_error(
        "DistributedOrbitModel::resume_latest: no checkpoint_prefix "
        "configured");
  }
  return resume_if_available(cfg_.checkpoint_prefix, *this);
}

std::int64_t DistributedOrbitModel::latest_committed_step() const {
  if (cfg_.checkpoint_prefix.empty()) return -1;
  return latest_checkpoint_step(cfg_.checkpoint_prefix);
}

}  // namespace orbit::core
