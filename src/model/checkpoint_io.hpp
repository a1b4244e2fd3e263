#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/q8.hpp"
#include "model/linear.hpp"
#include "model/param.hpp"
#include "tensor/rng.hpp"

/// \file checkpoint_io.hpp
/// Corruption-proof binary checkpointing.
///
/// Format v2 is record-based: a file is an ordered list of named records
/// (little-endian), each carrying a dtype tag, an optional tensor shape,
/// and a raw payload, followed by a trailing CRC32 over everything before
/// it. Records hold any training state — parameter tensors, Adam moments,
/// step counters, grad-scaler scale, RNG state — not just weights.
///
/// Durability protocol: `write_checkpoint` serialises into memory, writes
/// `<path>.tmp`, flushes, and `std::rename`s over the final path, so the
/// previous checkpoint survives a crash at any point during a save.
///
/// Transactionality: `read_checkpoint` parses and CRC-validates the whole
/// file into a staging `CheckpointData` before returning; the param-level
/// loaders validate every record (presence, dtype, shape) against the
/// model before copying a single float, so a failed load of any kind
/// leaves the model bitwise untouched.
///
/// Legacy: v1 files (magic "ORBITCKP": count + per-param name/shape/f32
/// payload, no CRC) still load read-only through the same staging path.
///
/// Naming convention: parameter records use the param's own hierarchical
/// name ("block3.attn.wq"); non-parameter training state uses the reserved
/// prefixes "adamw." / "train." / "scaler." / "rng.", which the param-only
/// `load_checkpoint` ignores — a full training-state file doubles as a
/// weights-only checkpoint.

namespace orbit::model {

/// One named record in a v2 checkpoint file.
struct CheckpointRecord {
  std::string name;
  std::string dtype;  ///< "f32" | "i64" | "u64" | "f64" | "bytes" | "q8_0"
  std::vector<std::int64_t> shape;  ///< tensor layout (f32/q8_0; else empty)
  std::vector<char> payload;        ///< raw little-endian bytes
};

/// Staging container for a checkpoint's records: ordered (file layout is
/// deterministic) and name-indexed. All typed getters validate the dtype
/// and payload size and throw std::runtime_error on mismatch, never
/// returning garbage.
class CheckpointData {
 public:
  void add_tensor(const std::string& name, const Tensor& t);
  void add_i64(const std::string& name, std::int64_t v);
  void add_u64(const std::string& name, std::uint64_t v);
  void add_f64(const std::string& name, double v);
  void add_bytes(const std::string& name, const void* data, std::size_t n);
  /// Append a fully-formed record (used by the file parser).
  void add_record(CheckpointRecord rec);

  bool contains(const std::string& name) const;
  /// Record lookup; throws std::runtime_error when absent.
  const CheckpointRecord& at(const std::string& name) const;

  /// Typed reads. `tensor` returns a fresh copy; `read_tensor` validates
  /// the stored shape against `into` and then overwrites it.
  Tensor tensor(const std::string& name) const;
  void read_tensor(const std::string& name, Tensor& into) const;
  std::int64_t i64(const std::string& name) const;
  std::uint64_t u64(const std::string& name) const;
  double f64(const std::string& name) const;
  const std::vector<char>& bytes(const std::string& name) const;

  const std::vector<CheckpointRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

 private:
  std::vector<CheckpointRecord> records_;
  std::map<std::string, std::size_t> index_;
};

/// CRC32 (IEEE 802.3, poly 0xEDB88320), the trailer checksum of format v2.
/// Exposed so tests can craft corrupt-but-recrc'd files that exercise the
/// structural validation behind the checksum.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Serialise `data` to `path` in format v2, atomically: the bytes land in
/// `<path>.tmp` first and replace `path` via std::rename only after a
/// successful flush. Throws std::runtime_error on IO failure (the previous
/// file at `path`, if any, is left intact).
void write_checkpoint(const std::string& path, const CheckpointData& data);

/// The atomic publish behind `write_checkpoint`: write `bytes` to
/// `<path>.tmp`, flush, and std::rename over `path`. Also used for the
/// sharded checkpoint's text sidecars. Throws std::runtime_error on IO
/// failure, leaving any previous file at `path` intact.
void write_file_atomic(const std::string& path, const std::string& bytes);

/// Parse and fully validate a checkpoint file (v2 with CRC verification,
/// or legacy v1) into a staging container. Throws std::runtime_error on
/// any corruption — bad magic, truncated header or payload, trailing
/// garbage, checksum mismatch — without partial results.
CheckpointData read_checkpoint(const std::string& path);

/// Validate that `data` can restore `params`: every param has an f32
/// record with an identical shape, and every non-reserved f32 record
/// matches some param (guards against silently fine-tuning the wrong
/// architecture). Throws std::runtime_error otherwise; touches nothing.
void check_params(const CheckpointData& data,
                  const std::vector<Param*>& params);

/// Copy param payloads from `data` into `params`. Callers must have run
/// `check_params` first (the typed reads still validate defensively).
void apply_params(const CheckpointData& data,
                  const std::vector<Param*>& params);

/// Store / restore a full RNG state (xoshiro words + Box–Muller cache) as
/// a packed "bytes" record, so a resumed data or augmentation stream
/// continues bit-for-bit. `read_rng_state` validates the payload size
/// before touching `rng`.
void add_rng_state(CheckpointData& data, const std::string& name,
                   const Rng& rng);
void read_rng_state(const CheckpointData& data, const std::string& name,
                    Rng& rng);

/// Serialise all parameter values to `path` (format v2, atomic). Throws
/// std::runtime_error on IO failure.
void save_checkpoint(const std::string& path,
                     const std::vector<Param*>& params);

/// Load values into matching params, transactionally: the entire file is
/// parsed and validated against the model before any param is written, so
/// a failure of any kind (corruption, shape mismatch, missing or unknown
/// param) leaves every param untouched. Accepts v1 and v2 files; reserved-
/// prefix records in full training-state files are ignored.
void load_checkpoint(const std::string& path,
                     const std::vector<Param*>& params);

/// --- q8_0 quantized weight files (DESIGN.md §4f) --------------------------
///
/// A quantized weight file is an ordinary v2 checkpoint where every Linear
/// weight is a "q8_0" record — shape [out, in] (the serving layout W^T),
/// payload the raw BlockQ8 array — and every other parameter (biases,
/// LayerNorms, embeddings) stays f32. Loading such a file switches the
/// model's Linears into quantized inference mode, sharing ONE image per
/// weight across however many replicas load from the same staging data.

/// A parsed quantized weight file: the raw records plus one shared,
/// read-only q8 image per "q8_0" record, keyed by record (= param) name.
/// Built once, then applied to N replicas — every replica's Linear ends up
/// holding a shared_ptr to the SAME image.
struct QuantizedWeights {
  CheckpointData data;
  std::map<std::string, std::shared_ptr<const kernels::QuantizedMat>> images;
};

/// Serialise a quantized weight file: each `linears` entry contributes a
/// "q8_0" record under its weight param's name (using the layer's existing
/// image when quantized, else quantizing a transient copy — the layer is
/// left untouched); every other param in `params` is stored f32. Atomic
/// like `write_checkpoint`. Throws std::runtime_error on IO failure and
/// std::logic_error when a non-quantized layer's f32 weights were dropped.
void save_quantized_weights(const std::string& path,
                            const std::vector<Param*>& params,
                            const std::vector<Linear*>& linears);

/// Parse and validate a quantized weight file into a staging container,
/// materialising every "q8_0" record into a shared image. Throws
/// std::runtime_error on corruption (bad CRC, payload size disagreeing
/// with shape) without partial results.
QuantizedWeights read_quantized_weights(const std::string& path);

/// Validate that `qw` can restore the model: every Linear weight has a
/// "q8_0" image shaped [out, in], every other param a matching f32 record,
/// and no unknown non-reserved records. Throws std::runtime_error
/// otherwise; touches nothing.
void check_quantized_weights(const QuantizedWeights& qw,
                             const std::vector<Param*>& params,
                             const std::vector<Linear*>& linears);

/// Copy f32 payloads into non-weight params and attach the shared images
/// to the Linears (dropping their f32 weight/grad storage — the model
/// becomes inference-only). Callers must have run `check_quantized_weights`
/// first.
void apply_quantized_weights(const QuantizedWeights& qw,
                             const std::vector<Param*>& params,
                             const std::vector<Linear*>& linears);

/// read + check + apply in one transactional step.
void load_quantized_weights(const std::string& path,
                            const std::vector<Param*>& params,
                            const std::vector<Linear*>& linears);

}  // namespace orbit::model
