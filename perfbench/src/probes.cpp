/// Per-layer probes that need no running workload: each GEMM layout and the
/// q8 GEMM at the models' shapes, every OrbitModel component's forward and
/// backward with achieved GFLOP/s, the training loss, and the q8 serving
/// forward at batch 1 and 8.

#include <functional>

#include "metrics/flops.hpp"
#include "metrics/metrics.hpp"
#include "model/config.hpp"
#include "model/vit.hpp"
#include "tensor/matmul.hpp"
#include "tensor/qmatmul.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace orbit;

constexpr int kChunks = 15;      ///< timing chunks; the median is reported
constexpr int kModelReps = 25;   ///< forward/backward pairs per component

/// Median milliseconds per call of `fn`, over chunks of `per_chunk` calls.
double per_call_ms(const std::function<void()>& fn, int per_chunk) {
  fn();  // warm
  std::vector<double> ms;
  for (int c = 0; c < kChunks; ++c) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_chunk; ++i) fn();
    ms.push_back(ms_since(t0) / per_chunk);
  }
  return median(ms);
}

double gflops(double flops, double ms) { return ms > 0.0 ? flops / (ms * 1e6) : 0.0; }

void gemm_probes(Result& r) {
  // tiny-large MLP fc1 at batch 8: [B*S, D] x [D, 4D] forward, and the
  // two backward layouts of the same Linear.
  const model::VitConfig cfg = model::tiny_large();
  const std::int64_t m = 8 * cfg.tokens(), k = cfg.embed, n = cfg.mlp_hidden();
  Rng rng(7);
  const Tensor x = Tensor::randn({m, k}, rng);
  const Tensor w = Tensor::randn({k, n}, rng);
  const Tensor dy = Tensor::randn({m, n}, rng);
  const Tensor wt = Tensor::randn({k, n}, rng);
  const double flops = 2.0 * static_cast<double>(m * k * n);
  r.layer["kernels.gemm_nn.gflops"] =
      gflops(flops, per_call_ms([&] { matmul(x, w); }, 10));
  r.layer["kernels.gemm_nt.gflops"] =
      gflops(flops, per_call_ms([&] { matmul_nt(dy, wt); }, 10));
  r.layer["kernels.gemm_tn.gflops"] =
      gflops(flops, per_call_ms([&] { matmul_tn(x, dy); }, 10));

  // tiny-small MLP fc1 in the q8 serving layout at batch 8.
  const model::VitConfig scfg = model::tiny_small();
  const std::int64_t qm = 8 * scfg.tokens(), qk = scfg.embed, qn = scfg.mlp_hidden();
  const Tensor a = Tensor::randn({qm, qk}, rng);
  const kernels::QuantizedMat wq = quantize_q8(Tensor::randn({qn, qk}, rng));
  r.layer["kernels.q8_nt.gflops"] =
      gflops(2.0 * static_cast<double>(qm * qk * qn),
             per_call_ms([&] { matmul_q8_nt(a, wq); }, 40));
}

/// Forward and backward of one component, median ms of each.
template <class Fwd, class Bwd>
std::pair<double, double> fwd_bwd(Fwd fwd, Bwd bwd) {
  fwd();
  bwd();
  std::vector<double> f, b;
  for (int i = 0; i < kModelReps; ++i) {
    Clock::time_point t0 = Clock::now();
    fwd();
    f.push_back(ms_since(t0));
    t0 = Clock::now();
    bwd();
    b.push_back(ms_since(t0));
  }
  return {median(f), median(b)};
}

void model_probes(Result& r) {
  const model::VitConfig cfg = model::tiny_large();
  const std::int64_t batch = 8;
  model::OrbitModel m(cfg);
  Rng rng(11);
  const Tensor x = Tensor::randn({batch, cfg.in_channels, cfg.image_h, cfg.image_w}, rng);
  const Tensor lead = Tensor::full({batch}, 0.25f);
  // One forward pass for every component's input.
  const Tensor tokens = m.patch_embed().forward(x);
  const Tensor agg = m.aggregation().forward(tokens);
  const Tensor cond = m.pos_lead().forward(agg, lead);
  const Tensor feat = m.tower().forward(cond);
  auto like = [&](const Tensor& t) { return Tensor::randn(t.shape(), rng, 0.01f); };
  const Tensor d_tokens = like(tokens), d_agg = like(agg);
  const Tensor d_out = like(m.head().forward(feat));
  model::TransformerBlock& blk = m.tower().block(0);

  const metrics::FlopsBreakdown fl = metrics::vit_train_flops(cfg);
  const double layers = static_cast<double>(cfg.layers);
  struct Probe {
    const char* name;
    std::pair<double, double> ms;
    double train_flops;  ///< per sample, forward + backward; 0 = none
  };
  const Probe probes[] = {
      {"patch_embed",
       fwd_bwd([&] { m.patch_embed().forward(x); },
               [&] { m.patch_embed().backward(d_tokens); }),
       fl.patch_embed},
      {"aggregation",
       fwd_bwd([&] { m.aggregation().forward(tokens); },
               [&] { m.aggregation().backward(d_agg); }),
       fl.aggregation},
      {"pos_lead",
       fwd_bwd([&] { m.pos_lead().forward(agg, lead); },
               [&] { m.pos_lead().backward(d_agg); }),
       0.0},
      {"block",
       fwd_bwd([&] { blk.forward(cond); }, [&] { blk.backward(d_agg); }),
       (fl.attention + fl.mlp) / layers},
      {"attention",
       fwd_bwd([&] { blk.attention().forward(cond); },
               [&] { blk.attention().backward(d_agg); }),
       fl.attention / layers},
      {"mlp",
       fwd_bwd([&] { blk.mlp().forward(cond); },
               [&] { blk.mlp().backward(d_agg); }),
       fl.mlp / layers},
      {"head",
       fwd_bwd([&] { m.head().forward(feat); }, [&] { m.head().backward(d_out); }),
       fl.head},
  };
  for (const Probe& p : probes) {
    const std::string key = std::string("model.") + p.name;
    r.layer[key + ".fwd_ms"] = p.ms.first;
    r.layer[key + ".bwd_ms"] = p.ms.second;
    if (p.train_flops > 0.0) {
      r.layer[key + ".gflops"] =
          gflops(p.train_flops * batch, p.ms.first + p.ms.second);
    }
  }

  // The training loss and its gradient at the same output shape.
  const Tensor pred = like(d_out), target = like(d_out);
  const Tensor latw = metrics::latitude_weights(cfg.image_h);
  r.layer["train.loss_ms"] = per_call_ms(
      [&] {
        metrics::wmse(pred, target, latw);
        metrics::wmse_grad(pred, target, latw);
      },
      20);
}

void serve_forward_probes(Result& r) {
  const model::VitConfig cfg = model::tiny_small();
  model::OrbitModel m(cfg);
  m.quantize_weights();
  Rng rng(13);
  for (const std::int64_t b : {1, 8}) {
    const Tensor x = Tensor::randn({b, cfg.in_channels, cfg.image_h, cfg.image_w}, rng);
    const Tensor lead = Tensor::full({b}, 0.25f);
    r.layer["serve.forward_b" + std::to_string(b) + "_ms"] =
        per_call_ms([&] { m.forward(x, lead); }, 5);
  }
}

}  // namespace

void layer_probes(Result& into) {
  gemm_probes(into);
  model_probes(into);
  serve_forward_probes(into);
}

}  // namespace perfbench
