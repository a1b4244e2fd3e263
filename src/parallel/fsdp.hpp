#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "comm/process_group.hpp"
#include "model/vit.hpp"
#include "parallel/flat_buffer.hpp"

/// \file fsdp.hpp
/// Fully Sharded Data Parallelism over a transformer tower (Fig. 2 of the
/// paper). Each rank owns 1/N of every parameter; full parameters are
/// all-gathered just-in-time for compute and gradients are reduce-scattered
/// back to shards. "Layer wrapping" (Sec. III-B) shards layer-by-layer so
/// only one block's parameters are ever materialised; without it the whole
/// model is gathered at once — the peak-memory problem Fig. 5 and Table I
/// attribute to vanilla FSDP.

namespace orbit::parallel {

struct FsdpOptions {
  /// One FSDP unit per transformer block (true) or a single unit for the
  /// whole tower (false, "vanilla" full-model gathering).
  bool wrap_layers = true;
  /// Free gathered parameters after each unit's forward and re-gather them
  /// for backward (trades communication for memory, like PyTorch FSDP).
  bool reshard_after_forward = true;
  /// Record prefetch intent (overlap is modeled in orbit::perf; data-flow
  /// here is identical either way).
  bool prefetch = true;
};

class FsdpTower {
 public:
  FsdpTower(model::TransformerTower& tower, comm::ProcessGroup group,
            FsdpOptions opts = {});

  Tensor forward(const Tensor& x);
  /// Leaves averaged gradients in `shard_params()`' grad tensors. Each
  /// unit's reduce-scatter is issued nonblocking as soon as that unit's
  /// gradients are final and backward continues into the next block; all
  /// pending collectives are waited at the end of this call (the optimizer
  /// boundary of the tower contract).
  Tensor backward(const Tensor& dy);

  /// The rank-local optimizer state: one flat shard param per unit.
  std::vector<model::Param*> shard_params();

  /// Gather every unit's parameters (e.g. before evaluation/saving).
  void materialize_all();

  /// Peak simultaneously-materialised parameter elements on this rank
  /// (shards excluded) — the quantity that OOMs vanilla FSDP.
  std::int64_t peak_materialized_elems() const { return peak_elems_; }
  std::int64_t unit_count() const {
    return static_cast<std::int64_t>(units_.size());
  }

 private:
  struct Unit {
    std::unique_ptr<FlatParamSet> set;
    model::Param shard;   ///< value+grad of this rank's slice
    bool materialized = false;
  };

  void gather(Unit& u);
  void release(Unit& u);
  void reduce_scatter_grads(Unit& u);

  model::TransformerTower& tower_;
  comm::ProcessGroup group_;
  FsdpOptions opts_;
  std::vector<Unit> units_;
  /// In-flight grad reduce-scatters, drained at the end of backward().
  /// Each handle keeps its packed flat input alive until wait.
  std::vector<comm::CommHandle> pending_grads_;
  std::int64_t cur_elems_ = 0;
  std::int64_t peak_elems_ = 0;
};

}  // namespace orbit::parallel
