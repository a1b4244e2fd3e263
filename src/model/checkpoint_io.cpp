#include "model/checkpoint_io.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "tensor/ops.hpp"
#include "tensor/qmatmul.hpp"

namespace orbit::model {
namespace {

constexpr std::uint64_t kMagicV1 = 0x4f52424954434b50ULL;  // "ORBITCKP"
constexpr std::uint64_t kMagicV2 = 0x4f52424954434b32ULL;  // "ORBITCK2"
constexpr std::uint64_t kVersion = 2;
/// Upper bound on name/dtype/shape lengths: rejects absurd values from a
/// corrupt header before they turn into huge allocations.
constexpr std::uint64_t kMaxFieldLen = 1ULL << 20;

const char* const kReservedPrefixes[] = {"adamw.", "train.", "scaler.",
                                         "rng."};

bool reserved_name(const std::string& name) {
  for (const char* prefix : kReservedPrefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

void append_u64(std::string& buf, std::uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint: corrupt file " + path + ": " + what);
}

/// Bounds-checked cursor over the in-memory file image. Every read throws
/// on overrun instead of walking past the buffer, so truncation anywhere
/// in the record stream is caught structurally (v1 files have no CRC).
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  const std::string& path;

  void require(std::size_t n, const char* what) {
    if (n > size - pos) {
      corrupt(path, std::string("truncated ") + what + " (need " +
                        std::to_string(n) + " bytes at offset " +
                        std::to_string(pos) + ", have " +
                        std::to_string(size - pos) + ")");
    }
  }
  std::uint64_t u64(const char* what) {
    require(sizeof(std::uint64_t), what);
    std::uint64_t v = 0;
    std::memcpy(&v, data + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  }
  std::string str(std::uint64_t len, const char* what) {
    if (len > kMaxFieldLen) {
      corrupt(path, std::string(what) + " length " + std::to_string(len) +
                        " exceeds sanity bound");
    }
    require(static_cast<std::size_t>(len), what);
    std::string s(data + pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return s;
  }
};

std::vector<std::int64_t> read_shape(Cursor& c) {
  const std::uint64_t ndim = c.u64("shape rank");
  if (ndim > 64) corrupt(c.path, "implausible shape rank");
  std::vector<std::int64_t> shape(static_cast<std::size_t>(ndim));
  for (auto& d : shape) {
    const std::uint64_t v = c.u64("shape dim");
    if (v > (1ULL << 48)) corrupt(c.path, "implausible shape dimension");
    d = static_cast<std::int64_t>(v);
  }
  return shape;
}

std::int64_t shape_elems(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) n *= d;
  return n;
}

CheckpointData parse_v2(const std::string& path, const std::string& image) {
  if (image.size() < 3 * sizeof(std::uint64_t) + sizeof(std::uint32_t)) {
    corrupt(path, "file shorter than the v2 header + CRC trailer");
  }
  const std::size_t body = image.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, image.data() + body, sizeof(stored));
  const std::uint32_t actual = crc32(image.data(), body);
  if (stored != actual) {
    corrupt(path, "CRC mismatch (stored " + std::to_string(stored) +
                      ", computed " + std::to_string(actual) +
                      ") — the file was truncated or bytes were flipped");
  }

  Cursor c{image.data(), body, 0, path};
  (void)c.u64("magic");
  const std::uint64_t version = c.u64("version");
  if (version != kVersion) {
    corrupt(path, "unsupported version " + std::to_string(version));
  }
  const std::uint64_t count = c.u64("record count");
  CheckpointData out;
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointRecord rec;
    rec.name = c.str(c.u64("name length"), "record name");
    rec.dtype = c.str(c.u64("dtype length"), "record dtype");
    rec.shape = read_shape(c);
    const std::uint64_t payload = c.u64("payload length");
    if (payload > body) corrupt(path, "payload length exceeds file size");
    c.require(static_cast<std::size_t>(payload), "record payload");
    rec.payload.assign(c.data + c.pos, c.data + c.pos + payload);
    c.pos += static_cast<std::size_t>(payload);
    if (rec.dtype == "f32" &&
        rec.payload.size() != static_cast<std::size_t>(shape_elems(rec.shape)) *
                                  sizeof(float)) {
      corrupt(path, "record " + rec.name + " payload disagrees with shape");
    }
    out.add_record(std::move(rec));
  }
  if (c.pos != body) corrupt(path, "trailing garbage after the last record");
  return out;
}

CheckpointData parse_v1(const std::string& path, const std::string& image) {
  Cursor c{image.data(), image.size(), 0, path};
  (void)c.u64("magic");
  const std::uint64_t count = c.u64("record count");
  CheckpointData out;
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointRecord rec;
    rec.name = c.str(c.u64("name length"), "record name");
    rec.dtype = "f32";
    rec.shape = read_shape(c);
    const std::size_t bytes =
        static_cast<std::size_t>(shape_elems(rec.shape)) * sizeof(float);
    c.require(bytes, "record payload");
    rec.payload.assign(c.data + c.pos, c.data + c.pos + bytes);
    c.pos += bytes;
    out.add_record(std::move(rec));
  }
  if (c.pos != image.size()) {
    corrupt(path, "trailing garbage after the last record");
  }
  return out;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFU;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

void CheckpointData::add_record(CheckpointRecord rec) {
  if (!index_.emplace(rec.name, records_.size()).second) {
    throw std::runtime_error("checkpoint: duplicate record name " + rec.name);
  }
  records_.push_back(std::move(rec));
}

void CheckpointData::add_tensor(const std::string& name, const Tensor& t) {
  CheckpointRecord rec;
  rec.name = name;
  rec.dtype = "f32";
  rec.shape = t.shape();
  const auto* bytes = reinterpret_cast<const char*>(t.data());
  rec.payload.assign(bytes,
                     bytes + static_cast<std::size_t>(t.numel()) * sizeof(float));
  add_record(std::move(rec));
}

void CheckpointData::add_i64(const std::string& name, std::int64_t v) {
  CheckpointRecord rec;
  rec.name = name;
  rec.dtype = "i64";
  rec.payload.assign(reinterpret_cast<const char*>(&v),
                     reinterpret_cast<const char*>(&v) + sizeof(v));
  add_record(std::move(rec));
}

void CheckpointData::add_u64(const std::string& name, std::uint64_t v) {
  CheckpointRecord rec;
  rec.name = name;
  rec.dtype = "u64";
  rec.payload.assign(reinterpret_cast<const char*>(&v),
                     reinterpret_cast<const char*>(&v) + sizeof(v));
  add_record(std::move(rec));
}

void CheckpointData::add_f64(const std::string& name, double v) {
  CheckpointRecord rec;
  rec.name = name;
  rec.dtype = "f64";
  rec.payload.assign(reinterpret_cast<const char*>(&v),
                     reinterpret_cast<const char*>(&v) + sizeof(v));
  add_record(std::move(rec));
}

void CheckpointData::add_bytes(const std::string& name, const void* data,
                               std::size_t n) {
  CheckpointRecord rec;
  rec.name = name;
  rec.dtype = "bytes";
  const auto* p = static_cast<const char*>(data);
  rec.payload.assign(p, p + n);
  add_record(std::move(rec));
}

bool CheckpointData::contains(const std::string& name) const {
  return index_.count(name) != 0;
}

const CheckpointRecord& CheckpointData::at(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::runtime_error("checkpoint: missing record " + name);
  }
  return records_[it->second];
}

namespace {

const CheckpointRecord& typed(const CheckpointData& d, const std::string& name,
                              const char* dtype, std::size_t payload_size) {
  const CheckpointRecord& rec = d.at(name);
  if (rec.dtype != dtype) {
    throw std::runtime_error("checkpoint: record " + name + " has dtype " +
                             rec.dtype + ", expected " + dtype);
  }
  if (payload_size != 0 && rec.payload.size() != payload_size) {
    throw std::runtime_error("checkpoint: record " + name +
                             " has unexpected payload size");
  }
  return rec;
}

}  // namespace

Tensor CheckpointData::tensor(const std::string& name) const {
  const CheckpointRecord& rec = typed(*this, name, "f32", 0);
  Tensor t = Tensor::zeros(rec.shape);
  if (rec.payload.size() !=
      static_cast<std::size_t>(t.numel()) * sizeof(float)) {
    throw std::runtime_error("checkpoint: record " + name +
                             " payload disagrees with shape");
  }
  std::memcpy(t.data(), rec.payload.data(), rec.payload.size());
  return t;
}

void CheckpointData::read_tensor(const std::string& name, Tensor& into) const {
  const CheckpointRecord& rec = typed(*this, name, "f32", 0);
  if (rec.shape != into.shape()) {
    throw std::runtime_error("checkpoint: shape mismatch for " + name);
  }
  if (rec.payload.size() !=
      static_cast<std::size_t>(into.numel()) * sizeof(float)) {
    throw std::runtime_error("checkpoint: record " + name +
                             " payload disagrees with shape");
  }
  std::memcpy(into.data(), rec.payload.data(), rec.payload.size());
}

std::int64_t CheckpointData::i64(const std::string& name) const {
  const CheckpointRecord& rec =
      typed(*this, name, "i64", sizeof(std::int64_t));
  std::int64_t v = 0;
  std::memcpy(&v, rec.payload.data(), sizeof(v));
  return v;
}

std::uint64_t CheckpointData::u64(const std::string& name) const {
  const CheckpointRecord& rec =
      typed(*this, name, "u64", sizeof(std::uint64_t));
  std::uint64_t v = 0;
  std::memcpy(&v, rec.payload.data(), sizeof(v));
  return v;
}

double CheckpointData::f64(const std::string& name) const {
  const CheckpointRecord& rec = typed(*this, name, "f64", sizeof(double));
  double v = 0.0;
  std::memcpy(&v, rec.payload.data(), sizeof(v));
  return v;
}

const std::vector<char>& CheckpointData::bytes(const std::string& name) const {
  return typed(*this, name, "bytes", 0).payload;
}

void write_checkpoint(const std::string& path, const CheckpointData& data) {
  std::string buf;
  append_u64(buf, kMagicV2);
  append_u64(buf, kVersion);
  append_u64(buf, data.size());
  for (const CheckpointRecord& rec : data.records()) {
    append_u64(buf, rec.name.size());
    buf.append(rec.name);
    append_u64(buf, rec.dtype.size());
    buf.append(rec.dtype);
    append_u64(buf, rec.shape.size());
    for (std::int64_t d : rec.shape) {
      append_u64(buf, static_cast<std::uint64_t>(d));
    }
    append_u64(buf, rec.payload.size());
    buf.append(rec.payload.data(), rec.payload.size());
  }
  const std::uint32_t crc = crc32(buf.data(), buf.size());
  buf.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  write_file_atomic(path, buf);
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  // The bytes become visible at `path` only via the final rename, so a
  // crash mid-save leaves the previous file intact.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("checkpoint: cannot open " + tmp);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path);
  }
}

CheckpointData read_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::string image((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  if (is.bad()) throw std::runtime_error("checkpoint: read failed for " + path);
  if (image.size() < sizeof(std::uint64_t)) {
    corrupt(path, "file shorter than the magic number");
  }
  std::uint64_t magic = 0;
  std::memcpy(&magic, image.data(), sizeof(magic));
  if (magic == kMagicV2) return parse_v2(path, image);
  if (magic == kMagicV1) return parse_v1(path, image);
  corrupt(path, "bad magic number");
}

void check_params(const CheckpointData& data,
                  const std::vector<Param*>& params) {
  std::map<std::string, Param*> by_name;
  for (Param* p : params) {
    if (!by_name.emplace(p->name, p).second) {
      throw std::runtime_error("checkpoint: duplicate param name " + p->name);
    }
  }
  for (const auto& [name, p] : by_name) {
    const CheckpointRecord& rec = data.at(name);
    if (rec.dtype != "f32") {
      throw std::runtime_error("checkpoint: record " + name + " has dtype " +
                               rec.dtype + ", expected f32");
    }
    if (rec.shape != p->value.shape()) {
      throw std::runtime_error("checkpoint: shape mismatch for " + name);
    }
  }
  for (const CheckpointRecord& rec : data.records()) {
    if (rec.dtype == "f32" && !reserved_name(rec.name) &&
        by_name.find(rec.name) == by_name.end()) {
      throw std::runtime_error("checkpoint: unknown param " + rec.name);
    }
  }
}

void apply_params(const CheckpointData& data,
                  const std::vector<Param*>& params) {
  for (Param* p : params) data.read_tensor(p->name, p->value);
}

void add_rng_state(CheckpointData& data, const std::string& name,
                   const Rng& rng) {
  const Rng::State st = rng.state();
  // Packed manually (4x u64 words, has-cache flag, cached draw) so the
  // record layout is independent of struct padding.
  std::array<std::uint64_t, 6> packed{};
  for (int i = 0; i < 4; ++i) packed[static_cast<std::size_t>(i)] = st.s[i];
  packed[4] = st.has_cached_normal ? 1 : 0;
  std::memcpy(&packed[5], &st.cached_normal, sizeof(double));
  data.add_bytes(name, packed.data(), sizeof(packed));
}

void read_rng_state(const CheckpointData& data, const std::string& name,
                    Rng& rng) {
  const std::vector<char>& payload = data.bytes(name);
  std::array<std::uint64_t, 6> packed{};
  if (payload.size() != sizeof(packed)) {
    throw std::runtime_error("checkpoint: record " + name +
                             " has unexpected payload size");
  }
  std::memcpy(packed.data(), payload.data(), sizeof(packed));
  Rng::State st;
  for (int i = 0; i < 4; ++i) st.s[i] = packed[static_cast<std::size_t>(i)];
  st.has_cached_normal = packed[4] != 0;
  std::memcpy(&st.cached_normal, &packed[5], sizeof(double));
  rng.set_state(st);
}

void save_checkpoint(const std::string& path,
                     const std::vector<Param*>& params) {
  CheckpointData data;
  for (const Param* p : params) data.add_tensor(p->name, p->value);
  write_checkpoint(path, data);
}

void load_checkpoint(const std::string& path,
                     const std::vector<Param*>& params) {
  const CheckpointData data = read_checkpoint(path);
  check_params(data, params);
  apply_params(data, params);
}

namespace {

/// Weight-param identity set: which of `params` are Linear weights (stored
/// as q8_0 records) rather than plain f32 records.
std::unordered_set<const Param*> weight_params(
    const std::vector<Linear*>& linears) {
  std::unordered_set<const Param*> out;
  for (Linear* l : linears) out.insert(&l->weight());
  return out;
}

std::size_t q8_payload_bytes(std::int64_t rows, std::int64_t cols) {
  const std::int64_t row_blocks =
      (cols + kernels::kQ8BlockSize - 1) / kernels::kQ8BlockSize;
  return static_cast<std::size_t>(rows * row_blocks) *
         sizeof(kernels::BlockQ8);
}

}  // namespace

void save_quantized_weights(const std::string& path,
                            const std::vector<Param*>& params,
                            const std::vector<Linear*>& linears) {
  const std::unordered_set<const Param*> weights = weight_params(linears);
  CheckpointData data;
  for (const Param* p : params) {
    if (weights.count(p) != 0) continue;
    data.add_tensor(p->name, p->value);
  }
  for (Linear* l : linears) {
    // Use the layer's existing image when quantized; otherwise quantize a
    // transient copy so exporting from an f32 training model does not
    // switch it into inference-only mode.
    std::shared_ptr<const kernels::QuantizedMat> img = l->quantized_weights();
    if (!img) {
      if (!l->weight().value.defined()) {
        throw std::logic_error("checkpoint: Linear " + l->weight().name +
                               " has neither f32 nor quantized weights");
      }
      img = std::make_shared<kernels::QuantizedMat>(
          quantize_q8(transpose(l->weight().value)));
    }
    CheckpointRecord rec;
    rec.name = l->weight().name;
    rec.dtype = "q8_0";
    rec.shape = {img->rows(), img->cols()};
    const auto* bytes = reinterpret_cast<const char*>(img->blocks().data());
    rec.payload.assign(bytes, bytes + img->byte_size());
    data.add_record(std::move(rec));
  }
  write_checkpoint(path, data);
}

QuantizedWeights read_quantized_weights(const std::string& path) {
  QuantizedWeights out;
  out.data = read_checkpoint(path);
  for (const CheckpointRecord& rec : out.data.records()) {
    if (rec.dtype != "q8_0") continue;
    if (rec.shape.size() != 2 || rec.shape[0] <= 0 || rec.shape[1] <= 0) {
      corrupt(path, "q8_0 record " + rec.name + " has a non-matrix shape");
    }
    if (rec.payload.size() != q8_payload_bytes(rec.shape[0], rec.shape[1])) {
      corrupt(path, "q8_0 record " + rec.name +
                        " payload disagrees with shape");
    }
    auto img =
        std::make_shared<kernels::QuantizedMat>(rec.shape[0], rec.shape[1]);
    std::memcpy(img->blocks().data(), rec.payload.data(), rec.payload.size());
    out.images.emplace(rec.name, std::move(img));
  }
  return out;
}

void check_quantized_weights(const QuantizedWeights& qw,
                             const std::vector<Param*>& params,
                             const std::vector<Linear*>& linears) {
  const std::unordered_set<const Param*> weights = weight_params(linears);
  std::map<std::string, Linear*> linear_by_name;
  for (Linear* l : linears) {
    if (!linear_by_name.emplace(l->weight().name, l).second) {
      throw std::runtime_error("checkpoint: duplicate Linear weight name " +
                               l->weight().name);
    }
  }
  std::map<std::string, Param*> f32_by_name;
  for (Param* p : params) {
    if (weights.count(p) != 0) continue;
    if (!f32_by_name.emplace(p->name, p).second) {
      throw std::runtime_error("checkpoint: duplicate param name " + p->name);
    }
  }

  for (const auto& [name, l] : linear_by_name) {
    const auto it = qw.images.find(name);
    if (it == qw.images.end()) {
      throw std::runtime_error("checkpoint: missing q8_0 record " + name);
    }
    if (it->second->rows() != l->out_features() ||
        it->second->cols() != l->in_features()) {
      throw std::runtime_error("checkpoint: shape mismatch for q8_0 record " +
                               name);
    }
  }
  for (const auto& [name, p] : f32_by_name) {
    const CheckpointRecord& rec = qw.data.at(name);
    if (rec.dtype != "f32") {
      throw std::runtime_error("checkpoint: record " + name + " has dtype " +
                               rec.dtype + ", expected f32");
    }
    if (rec.shape != p->value.shape()) {
      throw std::runtime_error("checkpoint: shape mismatch for " + name);
    }
  }
  for (const CheckpointRecord& rec : qw.data.records()) {
    if (reserved_name(rec.name)) continue;
    if (rec.dtype == "q8_0" &&
        linear_by_name.find(rec.name) == linear_by_name.end()) {
      throw std::runtime_error("checkpoint: unknown q8_0 record " + rec.name);
    }
    if (rec.dtype == "f32" &&
        f32_by_name.find(rec.name) == f32_by_name.end()) {
      throw std::runtime_error("checkpoint: unknown param " + rec.name);
    }
  }
}

void apply_quantized_weights(const QuantizedWeights& qw,
                             const std::vector<Param*>& params,
                             const std::vector<Linear*>& linears) {
  const std::unordered_set<const Param*> weights = weight_params(linears);
  for (Param* p : params) {
    if (weights.count(p) != 0) continue;
    qw.data.read_tensor(p->name, p->value);
  }
  for (Linear* l : linears) {
    l->set_quantized_weights(qw.images.at(l->weight().name),
                             /*drop_f32=*/true);
  }
}

void load_quantized_weights(const std::string& path,
                            const std::vector<Param*>& params,
                            const std::vector<Linear*>& linears) {
  const QuantizedWeights qw = read_quantized_weights(path);
  check_quantized_weights(qw, params, linears);
  apply_quantized_weights(qw, params, linears);
}

}  // namespace orbit::model
