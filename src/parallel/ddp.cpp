#include "parallel/ddp.hpp"

#include <cstring>

#include "parallel/flat_buffer.hpp"
#include "trace/trace.hpp"

namespace orbit::parallel {
namespace {

/// Coalesce one bucket's grads into a fresh flat tensor.
Tensor pack_bucket(const std::vector<model::Param*>& bucket) {
  std::int64_t total = 0;
  for (const model::Param* p : bucket) total += p->numel();
  Tensor flat = Tensor::empty({total});
  std::int64_t off = 0;
  for (const model::Param* p : bucket) {
    std::memcpy(flat.data() + off, p->grad.data(),
                static_cast<std::size_t>(p->numel()) * sizeof(float));
    off += p->numel();
  }
  return flat;
}

/// Scatter the reduced flat tensor back into the bucket's grads.
void unpack_bucket(const std::vector<model::Param*>& bucket,
                   const Tensor& flat) {
  std::int64_t off = 0;
  for (model::Param* p : bucket) {
    std::memcpy(p->grad.data(), flat.data() + off,
                static_cast<std::size_t>(p->numel()) * sizeof(float));
    off += p->numel();
  }
}

}  // namespace

DdpEngine::DdpEngine(std::vector<model::Param*> params,
                     comm::ProcessGroup group, DdpOptions opts)
    : params_(std::move(params)), group_(std::move(group)), opts_(opts) {}

void DdpEngine::sync_grads() {
  if (!group_.valid() || group_.size() == 1) return;
  ORBIT_TRACE_SPAN("ddp.sync_grads");
  buckets_used_ = 0;
  const auto buckets = bucket_params(params_, opts_.bucket_elems);
  // Pipelined: pack and issue every bucket's all-reduce up front, then wait
  // and unpack in issue order — bucket k+1's collective is in flight while
  // bucket k is being waited/unpacked.
  std::vector<Tensor> flats;
  std::vector<comm::CommHandle> handles;
  flats.reserve(buckets.size());
  handles.reserve(buckets.size());
  for (const auto& bucket : buckets) {
    flats.push_back(pack_bucket(bucket));
    handles.push_back(
        group_.all_reduce_async(flats.back(), comm::ReduceOp::kAvg));
    ++buckets_used_;
  }
  for (std::size_t b = 0; b < handles.size(); ++b) {
    handles[b].wait();
    unpack_bucket(buckets[b], flats[b]);
  }
}

void DdpEngine::broadcast_params() {
  if (!group_.valid() || group_.size() == 1) return;
  for (model::Param* p : params_) {
    group_.broadcast(p->value, /*root=*/0);
  }
}

}  // namespace orbit::parallel
