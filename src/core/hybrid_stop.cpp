#include "core/hybrid_stop.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/vit.hpp"
#include "tensor/bf16.hpp"
#include "tensor/matmul.hpp"
#include "tensor/nn_kernels.hpp"
#include "tensor/ops.hpp"
#include "trace/trace.hpp"

namespace orbit::core {
namespace {

Tensor shard_cols(const Tensor& w, const comm::ProcessGroup& g) {
  const std::int64_t out = w.dim(1);
  if (out % g.size() != 0) {
    throw std::invalid_argument("hybrid-stop: column dim " +
                                std::to_string(out) +
                                " not divisible by TP size " +
                                std::to_string(g.size()) + " on " +
                                g.describe());
  }
  const std::int64_t each = out / g.size();
  return slice(w, 1, g.rank() * each, (g.rank() + 1) * each);
}

Tensor shard_rows(const Tensor& w, const comm::ProcessGroup& g) {
  const std::int64_t in = w.dim(0);
  if (in % g.size() != 0) {
    throw std::invalid_argument("hybrid-stop: row dim " + std::to_string(in) +
                                " not divisible by TP size " +
                                std::to_string(g.size()) + " on " +
                                g.describe());
  }
  const std::int64_t each = in / g.size();
  return slice(w, 0, g.rank() * each, (g.rank() + 1) * each);
}

Tensor shard_vec(const Tensor& v, const comm::ProcessGroup& g) {
  const std::int64_t n = v.dim(0);
  if (n % g.size() != 0) {
    throw std::invalid_argument("hybrid-stop: bias length " +
                                std::to_string(n) +
                                " not divisible by TP size " +
                                std::to_string(g.size()) + " on " +
                                g.describe());
  }
  const std::int64_t each = n / g.size();
  return slice(v, 0, g.rank() * each, (g.rank() + 1) * each);
}

}  // namespace

HsShardedSet::HsShardedSet(std::string name,
                           std::vector<model::Param*> materialized,
                           comm::ProcessGroup fsdp, MemoryCounter* mem)
    : set_(std::move(materialized), fsdp.size()),
      fsdp_(std::move(fsdp)),
      mem_(mem) {
  Tensor flat = set_.pack_values();
  shard_ = model::Param(name + ".shard",
                        set_.extract_shard(flat, fsdp_.rank()));
  // Enter the sharded steady state immediately.
  for (model::Param* p : set_.params()) {
    p->value.fill_(std::numeric_limits<float>::quiet_NaN());
  }
}

void HsShardedSet::gather() {
  if (materialized_) return;
  ORBIT_TRACE_SPAN("hs.gather_params");
  Tensor flat = Tensor::empty({set_.flat_size()});
  fsdp_.all_gather(shard_.value, flat);
  set_.unpack_values(flat);
  materialized_ = true;
  if (mem_ != nullptr) mem_->add(set_.flat_size());
}

void HsShardedSet::release() {
  if (!materialized_) return;
  for (model::Param* p : set_.params()) {
    p->value.fill_(std::numeric_limits<float>::quiet_NaN());
  }
  materialized_ = false;
  if (mem_ != nullptr) mem_->sub(set_.flat_size());
}

void HsShardedSet::reduce_scatter_grads() {
  ORBIT_TRACE_SPAN("hs.reduce_scatter_grads");
  // Defensive: a still-pending handle here means the caller skipped the
  // wait boundary; complete it before reusing shard_.grad.
  wait_grads();
  Tensor flat = set_.pack_grads();
  shard_.grad = Tensor::empty({set_.shard_size()});
  // `flat` is a packed copy — zeroing the materialised grads below is safe
  // with the collective in flight; the handle keeps the flat storage alive
  // until every FSDP peer has read it at wait time.
  pending_rs_ =
      fsdp_.reduce_scatter_async(flat, shard_.grad, comm::ReduceOp::kAvg);
  for (model::Param* p : set_.params()) p->zero_grad();
}

void HsShardedSet::wait_grads() { pending_rs_.wait(); }

HsLinearPair::HsLinearPair(std::string name, const Tensor& a_full_w,
                           const Tensor& a_full_b, const Tensor& b_full_w,
                           const Tensor& b_full_b, Activation act,
                           comm::ProcessGroup tp, comm::ProcessGroup fsdp,
                           const HsOptions* opts, MemoryCounter* mem)
    : tp_(std::move(tp)),
      fsdp_(std::move(fsdp)),
      opts_(opts),
      act_(act),
      a_w_(name + ".A", shard_cols(a_full_w, tp_)),
      a_b_(name + ".a", shard_vec(a_full_b, tp_)),
      b_w_(name + ".B", shard_rows(b_full_w, tp_)),
      b_b_(name + ".b", b_full_b.clone()),
      out_dim_(b_full_w.dim(1)) {
  if (a_full_w.dim(1) != b_full_w.dim(0)) {
    throw std::invalid_argument("HsLinearPair: chain dims do not match");
  }
  set_a_ = std::make_unique<HsShardedSet>(
      name + ".setA", std::vector<model::Param*>{&a_w_, &a_b_}, fsdp_, mem);
  set_b_ = std::make_unique<HsShardedSet>(
      name + ".setB", std::vector<model::Param*>{&b_w_}, fsdp_, mem);
  // Captured from the *full* tensors — once sharded, the global shapes are
  // no longer recoverable from the materialised params alone.
  set_descs_.push_back(parallel::ShardedSetDesc{
      name + ".setA",
      {parallel::SliceDesc{name + ".A", a_full_w.shape(), 1},
       parallel::SliceDesc{name + ".a", a_full_b.shape(), 0}}});
  set_descs_.push_back(parallel::ShardedSetDesc{
      name + ".setB", {parallel::SliceDesc{name + ".B", b_full_w.shape(), 0}}});
}

Tensor HsLinearPair::forward(const Tensor& x) {
  cached_in_shape_ = x.shape();
  cached_x2d_ = x.reshape({-1, x.dim(-1)});

  // T2/T3 of Fig. 3(a): gather this rank's column shard of A within the
  // FSDP group. (The gather for B below is the prefetch target.)
  set_a_->gather();
  cached_pre_ = add_row_broadcast(matmul(cached_x2d_, a_w_.value), a_b_.value);
  Tensor h = act_ == Activation::kGelu ? gelu(cached_pre_) : cached_pre_;

  // T6: gather the row shard of B.
  set_b_->gather();
  // T7: partial output x·A_t·B_t, then the Eqn. (2) sum across the TP group.
  Tensor y = matmul(h, b_w_.value);
  tp_.all_reduce(y, comm::ReduceOp::kSum);
  y = add_row_broadcast(y, b_b_.value);
  if (opts_->bf16_activations) bf16_round_inplace(y.span());

  if (opts_->reshard_after_forward) {
    set_a_->release();
    set_b_->release();
  }
  std::vector<std::int64_t> out_shape = cached_in_shape_;
  out_shape.back() = out_dim_;
  return y.reshape(std::move(out_shape));
}

Tensor HsLinearPair::backward(const Tensor& dy) {
  Tensor dy2d = dy.reshape({-1, out_dim_});
  // Replicated output bias: identical grad on every rank of the TP group.
  b_b_.grad.add_(column_sum(dy2d));

  // T1/T2 of Fig. 3(b): gather B's row shard, compute its gradient, and
  // reduce-scatter it back to the FSDP shard owners.
  set_b_->gather();
  Tensor h = act_ == Activation::kGelu ? gelu(cached_pre_) : cached_pre_;
  b_w_.grad.add_(matmul_tn(h, dy2d));
  set_b_->reduce_scatter_grads();

  Tensor dh = matmul_nt(dy2d, b_w_.value);
  Tensor dpre =
      act_ == Activation::kGelu ? gelu_backward(cached_pre_, dh) : dh;

  // T3/T4: gather A's column shard and compute its gradient.
  set_a_->gather();
  a_w_.grad.add_(matmul_tn(cached_x2d_, dpre));
  a_b_.grad.add_(column_sum(dpre));
  set_a_->reduce_scatter_grads();

  // T5: activation gradient; partials summed across the TP group (Eqn. 3).
  Tensor dx = matmul_nt(dpre, a_w_.value);
  tp_.all_reduce(dx, comm::ReduceOp::kSum);

  set_a_->release();
  set_b_->release();
  return dx.reshape(cached_in_shape_);
}

void HsLinearPair::wait_grads() {
  // Issue order within backward(): B's reduce-scatter first, then A's.
  set_b_->wait_grads();
  set_a_->wait_grads();
}

void HsLinearPair::collect_shard_params(std::vector<model::Param*>& out) {
  out.push_back(&set_a_->shard());
  out.push_back(&set_b_->shard());
}

void HsLinearPair::collect_replicated_params(std::vector<model::Param*>& out) {
  out.push_back(&b_b_);
}

void HsLinearPair::collect_set_descs(
    std::vector<parallel::ShardedSetDesc>& out) const {
  for (const parallel::ShardedSetDesc& d : set_descs_) out.push_back(d);
}

HsAttention::HsAttention(std::string name,
                         model::MultiHeadSelfAttention& reference,
                         const model::VitConfig& cfg, comm::ProcessGroup tp,
                         comm::ProcessGroup fsdp, const HsOptions* opts,
                         MemoryCounter* mem)
    : tp_(std::move(tp)),
      fsdp_(std::move(fsdp)),
      opts_(opts),
      embed_(cfg.embed),
      heads_(cfg.heads),
      head_dim_(cfg.head_dim()),
      wq_(name + ".wq", shard_cols(reference.wq().weight().value, tp_)),
      bq_(name + ".bq", shard_vec(reference.wq().bias().value, tp_)),
      wk_(name + ".wk", shard_cols(reference.wk().weight().value, tp_)),
      bk_(name + ".bk", shard_vec(reference.wk().bias().value, tp_)),
      wv_(name + ".wv", shard_cols(reference.wv().weight().value, tp_)),
      bv_(name + ".bv", shard_vec(reference.wv().bias().value, tp_)),
      wo_(name + ".wo", shard_rows(reference.wo().weight().value, tp_)),
      bo_(name + ".bo", reference.wo().bias().value.clone()) {
  if (tp_.size() > heads_ || heads_ % tp_.size() != 0) {
    throw std::invalid_argument(
        "HsAttention: TP size " + std::to_string(tp_.size()) +
        " must divide the head count " + std::to_string(heads_) + " (on " +
        tp_.describe() +
        ") — attention TP sharding follows head blocks; scale further with "
        "the FSDP axis");
  }
  local_heads_ = heads_ / tp_.size();
  scale_ = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  if (cfg.qk_layernorm) {
    qk_ln_q_ = std::make_unique<model::LayerNormLayer>(name + ".q_ln",
                                                       head_dim_);
    qk_ln_k_ = std::make_unique<model::LayerNormLayer>(name + ".k_ln",
                                                       head_dim_);
    qk_ln_q_->gamma().value.copy_from(reference.q_ln()->gamma().value);
    qk_ln_q_->beta().value.copy_from(reference.q_ln()->beta().value);
    qk_ln_k_->gamma().value.copy_from(reference.k_ln()->gamma().value);
    qk_ln_k_->beta().value.copy_from(reference.k_ln()->beta().value);
  }
  set_qkv_ = std::make_unique<HsShardedSet>(
      name + ".setQKV",
      std::vector<model::Param*>{&wq_, &bq_, &wk_, &bk_, &wv_, &bv_}, fsdp_,
      mem);
  set_o_ = std::make_unique<HsShardedSet>(
      name + ".setO", std::vector<model::Param*>{&wo_}, fsdp_, mem);
  set_descs_.push_back(parallel::ShardedSetDesc{
      name + ".setQKV",
      {parallel::SliceDesc{name + ".wq", reference.wq().weight().value.shape(),
                           1},
       parallel::SliceDesc{name + ".bq", reference.wq().bias().value.shape(),
                           0},
       parallel::SliceDesc{name + ".wk", reference.wk().weight().value.shape(),
                           1},
       parallel::SliceDesc{name + ".bk", reference.wk().bias().value.shape(),
                           0},
       parallel::SliceDesc{name + ".wv", reference.wv().weight().value.shape(),
                           1},
       parallel::SliceDesc{name + ".bv", reference.wv().bias().value.shape(),
                           0}}});
  set_descs_.push_back(parallel::ShardedSetDesc{
      name + ".setO",
      {parallel::SliceDesc{name + ".wo", reference.wo().weight().value.shape(),
                           0}}});
}

Tensor HsAttention::split_local_heads(const Tensor& x) const {
  Tensor x4 = x.reshape({b_, s_, local_heads_, head_dim_});
  return permute(x4, {0, 2, 1, 3}).reshape({b_ * local_heads_, s_, head_dim_});
}

Tensor HsAttention::merge_local_heads(const Tensor& x) const {
  Tensor x4 = x.reshape({b_, local_heads_, s_, head_dim_});
  return permute(x4, {0, 2, 1, 3})
      .reshape({b_, s_, local_heads_ * head_dim_});
}

Tensor HsAttention::forward(const Tensor& x) {
  b_ = x.dim(0);
  s_ = x.dim(1);
  cached_x2d_ = x.reshape({-1, embed_});

  set_qkv_->gather();
  const std::int64_t d_local = local_heads_ * head_dim_;
  Tensor q2 = add_row_broadcast(matmul(cached_x2d_, wq_.value), bq_.value);
  Tensor k2 = add_row_broadcast(matmul(cached_x2d_, wk_.value), bk_.value);
  Tensor v2 = add_row_broadcast(matmul(cached_x2d_, wv_.value), bv_.value);
  Tensor q = split_local_heads(q2.reshape({b_, s_, d_local}));
  Tensor k = split_local_heads(k2.reshape({b_, s_, d_local}));
  Tensor v = split_local_heads(v2.reshape({b_, s_, d_local}));
  if (qk_ln_q_) {
    q = qk_ln_q_->forward(q);
    k = qk_ln_k_->forward(k);
  }
  cached_q_ = q;
  cached_k_ = k;
  cached_v_ = v;
  Tensor logits = matmul_nt_batched(q, k);
  logits.scale_(scale_);
  cached_probs_ = softmax_lastdim(logits);
  Tensor ctx = merge_local_heads(matmul_batched(cached_probs_, v));
  cached_ctx2d_ = ctx.reshape({-1, d_local});

  set_o_->gather();
  Tensor y = matmul(cached_ctx2d_, wo_.value);
  tp_.all_reduce(y, comm::ReduceOp::kSum);
  y = add_row_broadcast(y, bo_.value);
  if (opts_->bf16_activations) bf16_round_inplace(y.span());

  if (opts_->reshard_after_forward) {
    set_qkv_->release();
    set_o_->release();
  }
  return y.reshape({b_, s_, embed_});
}

Tensor HsAttention::backward(const Tensor& dy) {
  Tensor dy2d = dy.reshape({-1, embed_});
  bo_.grad.add_(column_sum(dy2d));

  set_o_->gather();
  wo_.grad.add_(matmul_tn(cached_ctx2d_, dy2d));
  Tensor dctx2d = matmul_nt(dy2d, wo_.value);
  set_o_->reduce_scatter_grads();

  const std::int64_t d_local = local_heads_ * head_dim_;
  Tensor dctx_h = split_local_heads(dctx2d.reshape({b_, s_, d_local}));
  Tensor dprobs = matmul_nt_batched(dctx_h, cached_v_);
  Tensor dv = matmul_tn_batched(cached_probs_, dctx_h);
  Tensor dlogits = softmax_lastdim_backward(cached_probs_, dprobs);
  dlogits.scale_(scale_);
  Tensor dq = matmul_batched(dlogits, cached_k_);
  Tensor dk = matmul_tn_batched(dlogits, cached_q_);
  if (qk_ln_q_) {
    dq = qk_ln_q_->backward(dq);
    dk = qk_ln_k_->backward(dk);
    // Partial over local heads: sum across the TP group.
    tp_.all_reduce(qk_ln_q_->gamma().grad, comm::ReduceOp::kSum);
    tp_.all_reduce(qk_ln_q_->beta().grad, comm::ReduceOp::kSum);
    tp_.all_reduce(qk_ln_k_->gamma().grad, comm::ReduceOp::kSum);
    tp_.all_reduce(qk_ln_k_->beta().grad, comm::ReduceOp::kSum);
  }
  Tensor dq2 = merge_local_heads(dq).reshape({-1, d_local});
  Tensor dk2 = merge_local_heads(dk).reshape({-1, d_local});
  Tensor dv2 = merge_local_heads(dv).reshape({-1, d_local});

  set_qkv_->gather();
  wq_.grad.add_(matmul_tn(cached_x2d_, dq2));
  bq_.grad.add_(column_sum(dq2));
  wk_.grad.add_(matmul_tn(cached_x2d_, dk2));
  bk_.grad.add_(column_sum(dk2));
  wv_.grad.add_(matmul_tn(cached_x2d_, dv2));
  bv_.grad.add_(column_sum(dv2));
  Tensor dx = matmul_nt(dq2, wq_.value);
  dx.add_(matmul_nt(dk2, wk_.value));
  dx.add_(matmul_nt(dv2, wv_.value));
  set_qkv_->reduce_scatter_grads();
  tp_.all_reduce(dx, comm::ReduceOp::kSum);

  set_qkv_->release();
  set_o_->release();
  return dx.reshape({b_, s_, embed_});
}

void HsAttention::wait_grads() {
  // Issue order within backward(): output projection first, then QKV.
  set_o_->wait_grads();
  set_qkv_->wait_grads();
}

void HsAttention::collect_shard_params(std::vector<model::Param*>& out) {
  out.push_back(&set_qkv_->shard());
  out.push_back(&set_o_->shard());
}

void HsAttention::collect_replicated_params(std::vector<model::Param*>& out) {
  out.push_back(&bo_);
  if (qk_ln_q_) {
    qk_ln_q_->collect_params(out);
    qk_ln_k_->collect_params(out);
  }
}

void HsAttention::collect_set_descs(
    std::vector<parallel::ShardedSetDesc>& out) const {
  for (const parallel::ShardedSetDesc& d : set_descs_) out.push_back(d);
}

HsBlock::HsBlock(std::string name, model::TransformerBlock& reference,
                 const model::VitConfig& cfg, comm::ProcessGroup tp,
                 comm::ProcessGroup fsdp, const HsOptions* opts,
                 MemoryCounter* mem)
    : opts_(opts) {
  ln1_ = std::make_unique<model::LayerNormLayer>(name + ".ln1", cfg.embed);
  ln1_->gamma().value.copy_from(reference.ln1().gamma().value);
  ln1_->beta().value.copy_from(reference.ln1().beta().value);
  ln2_ = std::make_unique<model::LayerNormLayer>(name + ".ln2", cfg.embed);
  ln2_->gamma().value.copy_from(reference.ln2().gamma().value);
  ln2_->beta().value.copy_from(reference.ln2().beta().value);
  attn_ = std::make_unique<HsAttention>(name + ".attn", reference.attention(),
                                        cfg, tp, fsdp, opts, mem);
  mlp_ = std::make_unique<HsLinearPair>(
      name + ".mlp", reference.mlp().fc1().weight().value,
      reference.mlp().fc1().bias().value,
      reference.mlp().fc2().weight().value,
      reference.mlp().fc2().bias().value, HsLinearPair::Activation::kGelu,
      std::move(tp), std::move(fsdp), opts, mem);
}

Tensor HsBlock::run_forward(const Tensor& x) {
  Tensor h = add(x, attn_->forward(ln1_->forward(x)));
  return add(h, mlp_->forward(ln2_->forward(h)));
}

Tensor HsBlock::forward(const Tensor& x) {
  if (opts_->checkpoint_activations) cached_input_ = x.clone();
  return run_forward(x);
}

Tensor HsBlock::backward(const Tensor& dy) {
  if (opts_->checkpoint_activations) {
    // Recompute pass: rebuilds every sub-layer cache, re-gathering the
    // shards it needs (extra communication traded for memory, Sec. III-B).
    (void)run_forward(cached_input_);
  }
  Tensor dh = mlp_->backward(dy);
  dh = ln2_->backward(dh);
  dh.add_(dy);
  Tensor dx = attn_->backward(dh);
  dx = ln1_->backward(dx);
  dx.add_(dh);
  return dx;
}

void HsBlock::wait_grads() {
  // Issue order within backward(): the MLP pair unwinds first, then attn.
  mlp_->wait_grads();
  attn_->wait_grads();
}

void HsBlock::collect_shard_params(std::vector<model::Param*>& out) {
  attn_->collect_shard_params(out);
  mlp_->collect_shard_params(out);
}

void HsBlock::collect_replicated_params(std::vector<model::Param*>& out) {
  ln1_->collect_params(out);
  ln2_->collect_params(out);
  attn_->collect_replicated_params(out);
  mlp_->collect_replicated_params(out);
}

void HsBlock::collect_set_descs(
    std::vector<parallel::ShardedSetDesc>& out) const {
  attn_->collect_set_descs(out);
  mlp_->collect_set_descs(out);
}

HsTower::HsTower(const model::VitConfig& cfg, comm::ProcessGroup tp,
                 comm::ProcessGroup fsdp, HsOptions opts)
    : opts_(opts) {
  Rng rng(cfg.seed);
  model::TransformerTower reference("tower", cfg, rng);
  build(reference, cfg, std::move(tp), std::move(fsdp));
}

HsTower::HsTower(model::TransformerTower& reference,
                 const model::VitConfig& cfg, comm::ProcessGroup tp,
                 comm::ProcessGroup fsdp, HsOptions opts)
    : opts_(opts) {
  build(reference, cfg, std::move(tp), std::move(fsdp));
}

void HsTower::build(model::TransformerTower& reference,
                    const model::VitConfig& cfg, comm::ProcessGroup tp,
                    comm::ProcessGroup fsdp) {
  blocks_.reserve(static_cast<std::size_t>(cfg.layers));
  for (std::int64_t i = 0; i < cfg.layers; ++i) {
    blocks_.push_back(std::make_unique<HsBlock>(
        "tower.block" + std::to_string(i), reference.block(i), cfg, tp, fsdp,
        &opts_, &mem_));
  }
}

Tensor HsTower::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& b : blocks_) h = b->forward(h);
  return h;
}

Tensor HsTower::backward(const Tensor& dy) {
  Tensor d = dy;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    d = (*it)->backward(d);
  }
  // Optimizer boundary: drain every in-flight grad reduce-scatter in issue
  // order (last block's sets first). Wait order must be identical on every
  // FSDP rank — completion is itself a rendezvous — which holds because
  // all ranks run this same loop.
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    (*it)->wait_grads();
  }
  return d;
}

std::vector<model::Param*> HsTower::shard_params() {
  std::vector<model::Param*> out;
  for (auto& b : blocks_) b->collect_shard_params(out);
  return out;
}

std::vector<parallel::ShardedSetDesc> HsTower::set_descs() const {
  std::vector<parallel::ShardedSetDesc> out;
  for (const auto& b : blocks_) b->collect_set_descs(out);
  return out;
}

std::vector<model::Param*> HsTower::replicated_params() {
  std::vector<model::Param*> out;
  for (auto& b : blocks_) b->collect_replicated_params(out);
  return out;
}

void HsTower::zero_grad() {
  for (model::Param* p : shard_params()) p->zero_grad();
  for (model::Param* p : replicated_params()) p->zero_grad();
}

}  // namespace orbit::core
