#pragma once

#include <vector>

#include "model/param.hpp"

/// \file flat_buffer.hpp
/// Flattening a set of parameters into one contiguous buffer, padded so it
/// splits evenly into shards — the storage layout beneath FSDP and the FSDP
/// axis of Hybrid-STOP (and the bucketing used by DDP).

namespace orbit::parallel {

/// Group params into contiguous buckets of at most `bucket_elems` elements
/// each; a param larger than the bucket size gets its own bucket. This is
/// the coalescing layout beneath DdpEngine's bucketed all-reduce.
std::vector<std::vector<model::Param*>> bucket_params(
    const std::vector<model::Param*>& params, std::int64_t bucket_elems);

/// Maps a parameter list onto a single padded flat vector.
class FlatParamSet {
 public:
  /// `num_shards` >= 1; flat length is padded up to a multiple of it.
  FlatParamSet(std::vector<model::Param*> params, int num_shards);

  std::int64_t flat_size() const { return flat_size_; }
  std::int64_t shard_size() const { return shard_size_; }
  int num_shards() const { return num_shards_; }
  const std::vector<model::Param*>& params() const { return params_; }

  /// Copy current param values into a new flat tensor (padding zeroed).
  Tensor pack_values() const;
  /// Copy a flat tensor's contents back into the param values.
  void unpack_values(const Tensor& flat) const;
  /// Copy current param grads into a new flat tensor.
  Tensor pack_grads() const;
  /// Copy a flat tensor back into param grads.
  void unpack_grads(const Tensor& flat) const;

  /// Extract shard `idx` of a full flat tensor.
  Tensor extract_shard(const Tensor& flat, int idx) const;
  /// Write shard `idx` into a full flat tensor.
  void insert_shard(Tensor& flat, const Tensor& shard, int idx) const;

 private:
  std::vector<model::Param*> params_;
  std::vector<std::int64_t> offsets_;
  std::int64_t flat_size_ = 0;
  std::int64_t shard_size_ = 0;
  int num_shards_ = 1;
};

}  // namespace orbit::parallel
