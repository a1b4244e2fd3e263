#include "core/hs_engine.hpp"

#include "comm/fault.hpp"
#include "tensor/ops.hpp"
#include "trace/trace.hpp"

namespace orbit::core {

namespace {
bool spans_ranks(const comm::ProcessGroup& g) {
  return g.valid() && g.size() > 1;
}
}  // namespace

void sync_mesh_grads(const HybridMesh& mesh,
                     const std::vector<model::Param*>& shard,
                     const std::vector<model::Param*>& replicated) {
  ORBIT_TRACE_SPAN("hs.sync_grads");
  std::vector<comm::CommHandle> pending;
  const auto average = [&](const comm::ProcessGroup& group,
                           const std::vector<model::Param*>& params) {
    if (!spans_ranks(group)) return;
    for (model::Param* p : params) {
      pending.push_back(group.all_reduce_async(p->grad, comm::ReduceOp::kAvg));
    }
  };
  average(mesh.ddp_group, shard);
  average(mesh.data_group, replicated);
  comm::wait_all(pending);
}

train::StepHooks mesh_step_hooks(const HybridMesh& mesh,
                                 const comm::ProcessGroup& world,
                                 const std::vector<model::Param*>& shard,
                                 const std::vector<model::Param*>& replicated) {
  train::StepHooks hooks{"hs.optimizer", "hs.grad_clip", {}, {}};
  hooks.overflow_vote = [&world](bool local) {
    Tensor flag = Tensor::full({1}, local ? 1.0f : 0.0f);
    world.all_reduce(flag, comm::ReduceOp::kMax);
    return flag[0] > 0.5f;
  };
  hooks.global_sq_norm = [&mesh, &shard, &replicated] {
    double shard_sq = 0.0;
    for (model::Param* p : shard) shard_sq += sum_sq(p->grad);
    Tensor acc = Tensor::full({1}, static_cast<float>(shard_sq));
    for (const comm::ProcessGroup* g : {&mesh.fsdp_group, &mesh.tp_group}) {
      if (spans_ranks(*g)) g->all_reduce(acc, comm::ReduceOp::kSum);
    }
    double total_sq = acc[0];
    for (model::Param* p : replicated) total_sq += sum_sq(p->grad);
    return total_sq;
  };
  return hooks;
}

double data_group_mean(const HybridMesh& mesh, double local) {
  Tensor t = Tensor::full({1}, static_cast<float>(local));
  if (spans_ranks(mesh.data_group)) {
    mesh.data_group.all_reduce(t, comm::ReduceOp::kAvg);
  }
  return t[0];
}

HsEngine::HsEngine(const model::VitConfig& cfg, comm::RankContext& ctx,
                   HsEngineConfig engine_cfg)
    : cfg_(engine_cfg),
      mesh_(HybridMesh::build(ctx, engine_cfg.ddp, engine_cfg.fsdp,
                              engine_cfg.tp)),
      world_(ctx.world_group()),
      scaler_(engine_cfg.scaler) {
  tower_ = std::make_unique<HsTower>(cfg, mesh_.tp_group, mesh_.fsdp_group,
                                     engine_cfg.options);
  train::AdamWConfig acfg = cfg_.adamw;
  acfg.bf16_params = cfg_.mixed_precision;
  opt_ = std::make_unique<train::AdamW>(all_params(), acfg);
}

std::vector<model::Param*> HsEngine::all_params() {
  std::vector<model::Param*> out = tower_->shard_params();
  for (model::Param* p : tower_->replicated_params()) out.push_back(p);
  return out;
}

Tensor HsEngine::forward(const Tensor& x) { return tower_->forward(x); }

Tensor HsEngine::backward(const Tensor& dy) { return tower_->backward(dy); }

void HsEngine::sync_grads() {
  sync_mesh_grads(mesh_, tower_->shard_params(), tower_->replicated_params());
}

void HsEngine::zero_grad() { tower_->zero_grad(); }

double HsEngine::train_step_mse(const Tensor& x, const Tensor& target) {
  ORBIT_TRACE_SPAN("hs.step");
  zero_grad();
  Tensor dy;
  double local_loss = 0.0;
  {
    ORBIT_TRACE_SPAN("hs.forward");
    Tensor y = forward(x);
    Tensor err = sub(y, target);
    local_loss = sum_sq(err) / static_cast<double>(err.numel());
    dy = scale(err, 2.0f / static_cast<float>(err.numel()));
  }
  const float s = cfg_.mixed_precision ? scaler_.scale() : 1.0f;
  if (s != 1.0f) dy.scale_(s);
  {
    ORBIT_TRACE_SPAN("hs.backward");
    backward(dy);
  }
  // Step-triggered fault-injection point (same placement as the full
  // distributed trainer's): local work done, nothing synchronised yet.
  comm::fault::on_train_step(mesh_.global_rank(), step_);
  const std::vector<model::Param*> shard = tower_->shard_params();
  const std::vector<model::Param*> replicated = tower_->replicated_params();
  sync_mesh_grads(mesh_, shard, replicated);
  train::finish_step(*opt_, cfg_.mixed_precision ? &scaler_ : nullptr,
                     /*clip_norm=*/0.0,
                     mesh_step_hooks(mesh_, world_, shard, replicated));
  ++step_;
  return data_group_mean(mesh_, local_loss);
}

}  // namespace orbit::core
