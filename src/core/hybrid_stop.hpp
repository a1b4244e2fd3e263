#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/process_group.hpp"
#include "model/config.hpp"
#include "model/vit.hpp"
#include "parallel/flat_buffer.hpp"
#include "parallel/shard_desc.hpp"

/// \file hybrid_stop.hpp
/// Hybrid Sharded Tensor-Data Orthogonal Parallelism — the paper's core
/// contribution (Sec. III-A, Fig. 3).
///
/// Every transformer matrix chain y = act(x·A)·B is distributed on two
/// orthogonal axes:
///   * Tensor-parallel axis (size T): A is split into column shards A_t and
///     B into row shards B_t, so y = Σ_t act(x·A_t)·B_t  (paper Eqn. 2);
///     partial outputs are summed with one all-reduce per chain.
///   * FSDP axis (size F): each TP shard's storage is further sharded F
///     ways; full shards are all-gathered just-in-time ("layer wrapping")
///     and gradients reduce-scattered back — but, unlike vanilla FSDP,
///     only a 1/T slice of the layer is ever materialised, which is why
///     Hybrid-STOP's peak memory beats both parents (paper Fig. 5).
/// A third DDP axis replicates the whole arrangement for data parallelism
/// (handled by HsEngine in hs_engine.hpp).

namespace orbit::core {

/// Peak-materialisation accounting shared by all sharded sets of an engine.
struct MemoryCounter {
  std::int64_t current = 0;
  std::int64_t peak = 0;
  void add(std::int64_t n) {
    current += n;
    if (current > peak) peak = current;
  }
  void sub(std::int64_t n) { current -= n; }
};

/// Execution options (the Sec. III-B optimizations that affect data flow).
struct HsOptions {
  /// Free gathered shards after each layer's forward, re-gathering for
  /// backward (on by default, as in the paper's layer wrapping).
  bool reshard_after_forward = true;
  /// Round activations through the bf16 grid at chain boundaries
  /// (emulated mixed-precision compute).
  bool bf16_activations = false;
  /// Recompute block forwards during backward (activation checkpointing).
  bool checkpoint_activations = false;
};

/// A group of materialised parameters whose storage lives sharded across an
/// FSDP group. gather() rebuilds the full values; reduce_scatter_grads()
/// averages gradients across the group into the rank-local shard.
class HsShardedSet {
 public:
  HsShardedSet(std::string name, std::vector<model::Param*> materialized,
               comm::ProcessGroup fsdp, MemoryCounter* mem);

  void gather();
  void release();
  /// Issues the grad reduce-scatter nonblocking; call `wait_grads()` before
  /// reading `shard().grad` or destroying the set.
  void reduce_scatter_grads();
  /// Complete a pending reduce-scatter; no-op when none is in flight.
  /// HsTower does it at the end of backward(), in issue order.
  void wait_grads();
  bool materialized() const { return materialized_; }
  model::Param& shard() { return shard_; }
  std::int64_t full_elems() const { return set_.flat_size(); }

 private:
  parallel::FlatParamSet set_;
  comm::ProcessGroup fsdp_;
  MemoryCounter* mem_;
  model::Param shard_;
  comm::CommHandle pending_rs_;  ///< in-flight grad reduce-scatter
  bool materialized_ = false;
};

/// The sharded matrix chain y = act(x·A + a)·B + b of Fig. 3.
class HsLinearPair {
 public:
  enum class Activation { kNone, kGelu };

  /// Shards the full weights: A/a column-wise across `tp`, B row-wise; both
  /// TP shards are FSDP-sharded across `fsdp`. b stays replicated.
  HsLinearPair(std::string name, const Tensor& a_full_w,
               const Tensor& a_full_b, const Tensor& b_full_w,
               const Tensor& b_full_b, Activation act, comm::ProcessGroup tp,
               comm::ProcessGroup fsdp, const HsOptions* opts,
               MemoryCounter* mem);

  Tensor forward(const Tensor& x);   // [..., in] replicated -> replicated
  /// Issues both sets' grad reduce-scatters; call `wait_grads()` before
  /// reading their `shard().grad` or destroying the sets.
  Tensor backward(const Tensor& dy);
  /// Drain this pair's pending grad reduce-scatters, in issue order.
  void wait_grads();

  void collect_shard_params(std::vector<model::Param*>& out);
  void collect_replicated_params(std::vector<model::Param*>& out);
  /// Mesh-independent descriptors of this pair's sharded sets (setA, setB),
  /// captured from the full weights at construction — the resharding
  /// loader's source of truth for logical shapes and slice axes.
  void collect_set_descs(std::vector<parallel::ShardedSetDesc>& out) const;

 private:
  comm::ProcessGroup tp_, fsdp_;
  const HsOptions* opts_;
  Activation act_;
  std::vector<parallel::ShardedSetDesc> set_descs_;
  model::Param a_w_, a_b_;  ///< materialised TP shards of A and its bias
  model::Param b_w_;        ///< materialised TP row shard of B
  model::Param b_b_;        ///< replicated output bias
  std::unique_ptr<HsShardedSet> set_a_, set_b_;
  Tensor cached_x2d_, cached_pre_;
  std::vector<std::int64_t> cached_in_shape_;
  std::int64_t out_dim_;
};

/// Hybrid-STOP self-attention: head-block column shards for Q/K/V, row
/// shard for the output projection, each FSDP-sharded; QK-LayerNorm params
/// replicated with TP-summed gradients.
class HsAttention {
 public:
  HsAttention(std::string name, model::MultiHeadSelfAttention& reference,
              const model::VitConfig& cfg, comm::ProcessGroup tp,
              comm::ProcessGroup fsdp, const HsOptions* opts,
              MemoryCounter* mem);

  Tensor forward(const Tensor& x);
  /// Issues both sets' grad reduce-scatters; call `wait_grads()` before
  /// reading their `shard().grad` or destroying the sets.
  Tensor backward(const Tensor& dy);
  /// Drain pending grad reduce-scatters, in issue order.
  void wait_grads();
  void collect_shard_params(std::vector<model::Param*>& out);
  void collect_replicated_params(std::vector<model::Param*>& out);
  /// Descriptors of setQKV and setO (see HsLinearPair::collect_set_descs).
  void collect_set_descs(std::vector<parallel::ShardedSetDesc>& out) const;

 private:
  comm::ProcessGroup tp_, fsdp_;
  const HsOptions* opts_;
  std::vector<parallel::ShardedSetDesc> set_descs_;
  std::int64_t embed_, heads_, local_heads_, head_dim_;
  float scale_;
  model::Param wq_, bq_, wk_, bk_, wv_, bv_;  ///< TP column shards
  model::Param wo_;                            ///< TP row shard
  model::Param bo_;                            ///< replicated
  std::unique_ptr<model::LayerNormLayer> qk_ln_q_, qk_ln_k_;
  std::unique_ptr<HsShardedSet> set_qkv_, set_o_;
  Tensor cached_x2d_, cached_q_, cached_k_, cached_v_, cached_probs_,
      cached_ctx2d_;
  std::int64_t b_ = 0, s_ = 0;

  Tensor split_local_heads(const Tensor& x) const;
  Tensor merge_local_heads(const Tensor& x) const;
};

/// One Hybrid-STOP transformer block (pre-LN, residual, optional
/// activation checkpointing).
class HsBlock {
 public:
  HsBlock(std::string name, model::TransformerBlock& reference,
          const model::VitConfig& cfg, comm::ProcessGroup tp,
          comm::ProcessGroup fsdp, const HsOptions* opts, MemoryCounter* mem);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);
  /// Drain pending grad reduce-scatters of both sub-layers, in issue order.
  void wait_grads();
  void collect_shard_params(std::vector<model::Param*>& out);
  void collect_replicated_params(std::vector<model::Param*>& out);
  /// Sub-layer set descriptors in collect_shard_params order (attn, mlp).
  void collect_set_descs(std::vector<parallel::ShardedSetDesc>& out) const;

 private:
  const HsOptions* opts_;
  std::unique_ptr<model::LayerNormLayer> ln1_, ln2_;
  std::unique_ptr<HsAttention> attn_;
  std::unique_ptr<HsLinearPair> mlp_;
  Tensor cached_input_;

  Tensor run_forward(const Tensor& x);
};

/// The Hybrid-STOP transformer tower: a stack of HsBlocks sharing one
/// option set and memory counter, built by sharding a seeded serial
/// reference so distributed weights equal the serial model's exactly.
class HsTower {
 public:
  HsTower(const model::VitConfig& cfg, comm::ProcessGroup tp,
          comm::ProcessGroup fsdp, HsOptions opts);

  /// Shard an existing tower's weights instead of rebuilding from the seed
  /// (used when the tower is part of a larger model whose other components
  /// stay replicated — see core/distributed_model.hpp).
  HsTower(model::TransformerTower& reference, const model::VitConfig& cfg,
          comm::ProcessGroup tp, comm::ProcessGroup fsdp, HsOptions opts);

  Tensor forward(const Tensor& x);
  /// Each sharded set's grad reduce-scatter is issued nonblocking as soon
  /// as that set's gradients are final while backward continues into
  /// earlier blocks; every pending collective is drained (issue order)
  /// before this returns, so shard grads are always final at the optimizer
  /// boundary.
  Tensor backward(const Tensor& dy);

  std::vector<model::Param*> shard_params();
  std::vector<model::Param*> replicated_params();
  /// Mesh-independent sharded-set descriptors, in shard_params order: one
  /// entry per HsShardedSet, each naming its members' logical tensors, full
  /// shapes, TP slice axes, and pack order. Two towers built from the same
  /// config report identical descriptors whatever their meshes — the
  /// invariant the resharding checkpoint loader rests on.
  std::vector<parallel::ShardedSetDesc> set_descs() const;
  void zero_grad();

  const MemoryCounter& memory() const { return mem_; }
  HsOptions& options() { return opts_; }

 private:
  void build(model::TransformerTower& reference, const model::VitConfig& cfg,
             comm::ProcessGroup tp, comm::ProcessGroup fsdp);

  HsOptions opts_;
  MemoryCounter mem_;
  std::vector<std::unique_ptr<HsBlock>> blocks_;
};

}  // namespace orbit::core
