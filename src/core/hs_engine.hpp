#pragma once

#include <memory>
#include <vector>

#include "core/hybrid_stop.hpp"
#include "core/mesh.hpp"
#include "train/grad_scaler.hpp"
#include "train/optimizer.hpp"
#include "train/schedule.hpp"

/// \file hs_engine.hpp
/// The distributed training engine: Hybrid-STOP tower + hierarchical
/// DDP axis + rank-local optimizer (Fig. 4). One HsEngine lives on every
/// rank of a run_spmd world.

namespace orbit::core {

/// --- the data-parallel side of a Hybrid-STOP step, shared by HsEngine and
/// DistributedOrbitModel. `shard`: this rank's tower shards (already
/// FSDP-averaged by backward's reduce-scatters); `replicated`: the params
/// every rank holds whole.

/// "hs.sync_grads": average `shard` grads over the DDP replicas and
/// `replicated` grads over the data group. Every all-reduce is issued up
/// front and drained in issue order before this returns.
void sync_mesh_grads(const HybridMesh& mesh,
                     const std::vector<model::Param*>& shard,
                     const std::vector<model::Param*>& replicated);

/// `train::finish_step` hooks ("hs.optimizer" ⊃ "hs.grad_clip"): MAX vote of
/// the overflow flag over `world`; squared norm = shard squares (disjoint
/// across FSDP x TP) as one f32 summed over both axes, plus the replicated
/// squares once. The hooks keep references to all four arguments.
train::StepHooks mesh_step_hooks(const HybridMesh& mesh,
                                 const comm::ProcessGroup& world,
                                 const std::vector<model::Param*>& shard,
                                 const std::vector<model::Param*>& replicated);

/// `local` averaged over the data group in f32: a distributed step's loss.
double data_group_mean(const HybridMesh& mesh, double local);

struct HsEngineConfig {
  int ddp = 1, fsdp = 1, tp = 1;
  HsOptions options;
  train::AdamWConfig adamw;
  /// BF16 mixed precision: bf16 working shards, f32 masters, dynamic
  /// gradient scaling with globally-consistent overflow skipping.
  bool mixed_precision = false;
  train::GradScalerConfig scaler;
};

class HsEngine {
 public:
  HsEngine(const model::VitConfig& cfg, comm::RankContext& ctx,
           HsEngineConfig engine_cfg);

  /// x: [B_local, S, D] — this rank's data shard (identical within a TP
  /// group, distinct across FSDP/DDP coordinates).
  Tensor forward(const Tensor& x);
  /// Local backward; leaves unsynchronised grads in engine params.
  Tensor backward(const Tensor& dy);
  /// DDP-average shard grads and data-group-average replicated grads.
  void sync_grads();
  void zero_grad();

  /// One full training step on a tower-level MSE task; returns the global
  /// mean loss (averaged across data shards). Used by equivalence tests and
  /// the pre-training benches.
  double train_step_mse(const Tensor& x, const Tensor& target);

  HsTower& tower() { return *tower_; }
  const HybridMesh& mesh() const { return mesh_; }
  train::AdamW& optimizer() { return *opt_; }
  train::GradScaler& scaler() { return scaler_; }
  const MemoryCounter& memory() const { return tower_->memory(); }

  /// All rank-local trainable state (shards + replicated).
  std::vector<model::Param*> all_params();

  /// Completed `train_step_mse` calls (the step index fault injection
  /// matches against, see comm/fault.hpp).
  std::int64_t step() const { return step_; }

 private:
  HsEngineConfig cfg_;
  HybridMesh mesh_;
  comm::ProcessGroup world_;
  std::unique_ptr<HsTower> tower_;
  std::unique_ptr<train::AdamW> opt_;
  train::GradScaler scaler_;
  std::int64_t step_ = 0;
};

}  // namespace orbit::core
