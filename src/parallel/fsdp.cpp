#include "parallel/fsdp.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "trace/trace.hpp"

namespace orbit::parallel {

FsdpTower::FsdpTower(model::TransformerTower& tower, comm::ProcessGroup group,
                     FsdpOptions opts)
    : tower_(tower), group_(std::move(group)), opts_(opts) {
  if (!group_.valid()) {
    throw std::invalid_argument(
        "FsdpTower: caller is not a member of the FSDP group "
        "(invalid handle; guard with valid())");
  }

  std::vector<std::vector<model::Param*>> unit_params;
  if (opts_.wrap_layers) {
    for (std::int64_t i = 0; i < tower_.layer_count(); ++i) {
      std::vector<model::Param*> ps;
      tower_.block(i).collect_params(ps);
      unit_params.push_back(std::move(ps));
    }
  } else {
    unit_params.push_back(tower_.params());
  }

  int idx = 0;
  for (auto& ps : unit_params) {
    Unit u;
    u.set = std::make_unique<FlatParamSet>(std::move(ps), group_.size());
    Tensor flat = u.set->pack_values();
    u.shard = model::Param("fsdp.unit" + std::to_string(idx++) + ".shard",
                           u.set->extract_shard(flat, group_.rank()));
    u.materialized = true;
    units_.push_back(std::move(u));
  }
  // Enter the sharded steady state: only shards persist between steps, so
  // the peak counter reflects training-time materialisation, not init.
  for (Unit& u : units_) release(u);
  cur_elems_ = 0;
  peak_elems_ = 0;
}

void FsdpTower::gather(Unit& u) {
  if (u.materialized) return;
  ORBIT_TRACE_SPAN("fsdp.gather_params");
  Tensor flat = Tensor::empty({u.set->flat_size()});
  group_.all_gather(u.shard.value, flat);
  u.set->unpack_values(flat);
  u.materialized = true;
  cur_elems_ += u.set->flat_size();
  peak_elems_ = std::max(peak_elems_, cur_elems_);
}

void FsdpTower::release(Unit& u) {
  if (!u.materialized) return;
  // Poison freed parameters so any use-after-release shows up as NaN in the
  // tests rather than as silently stale values.
  for (model::Param* p : u.set->params()) {
    p->value.fill_(std::numeric_limits<float>::quiet_NaN());
  }
  u.materialized = false;
  cur_elems_ -= u.set->flat_size();
}

void FsdpTower::reduce_scatter_grads(Unit& u) {
  ORBIT_TRACE_SPAN("fsdp.reduce_scatter_grads");
  Tensor flat = u.set->pack_grads();
  u.shard.grad = Tensor::empty({u.set->shard_size()});
  // `flat` is a packed copy, so zeroing the layer grads below is safe while
  // the collective is in flight; the handle keeps the flat storage alive
  // until every peer has read it at wait time.
  pending_grads_.push_back(
      group_.reduce_scatter_async(flat, u.shard.grad, comm::ReduceOp::kAvg));
  // Consumed: clear the layer grads so the next step starts clean.
  for (model::Param* p : u.set->params()) p->zero_grad();
}

Tensor FsdpTower::forward(const Tensor& x) {
  Tensor h = x;
  if (opts_.wrap_layers) {
    for (std::int64_t i = 0; i < tower_.layer_count(); ++i) {
      Unit& u = units_[static_cast<std::size_t>(i)];
      gather(u);
      h = tower_.block(i).forward(h);
      if (opts_.reshard_after_forward) release(u);
    }
  } else {
    gather(units_[0]);
    h = tower_.forward(h);
    // Vanilla FSDP also reshards, but it just re-gathers the whole model in
    // backward — the peak is identical either way.
    if (opts_.reshard_after_forward) release(units_[0]);
  }
  return h;
}

Tensor FsdpTower::backward(const Tensor& dy) {
  Tensor d = dy;
  if (opts_.wrap_layers) {
    for (std::int64_t i = tower_.layer_count() - 1; i >= 0; --i) {
      Unit& u = units_[static_cast<std::size_t>(i)];
      gather(u);
      d = tower_.block(i).backward(d);
      reduce_scatter_grads(u);
      release(u);
    }
  } else {
    gather(units_[0]);
    d = tower_.backward(d);
    reduce_scatter_grads(units_[0]);
    release(units_[0]);
  }
  // Optimizer boundary: drain every in-flight reduce-scatter (issue order)
  // so shard grads are final when backward returns.
  comm::wait_all(pending_grads_);
  return d;
}

std::vector<model::Param*> FsdpTower::shard_params() {
  std::vector<model::Param*> out;
  out.reserve(units_.size());
  for (Unit& u : units_) out.push_back(&u.shard);
  return out;
}

void FsdpTower::materialize_all() {
  for (Unit& u : units_) gather(u);
}

}  // namespace orbit::parallel
