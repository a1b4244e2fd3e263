/// relaunch: back-to-back short `run_spmd` launches on the train_hs mesh
/// with tiny-test, the supervised-retry and elastic path. Each launch builds
/// the model, resumes the last committed generation, trains a few steps and
/// commits a checkpoint. Launch, trace-ring allocation and checkpoint I/O
/// dominate; compute is tiny.

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "comm/world.hpp"
#include "core/distributed_model.hpp"
#include "data/dataset.hpp"
#include "metrics/metrics.hpp"
#include "model/config.hpp"
#include "trace/report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace orbit;
namespace fs = std::filesystem;

constexpr int kDdp = 1, kFsdp = 2, kTp = 2;
constexpr int kWorld = kDdp * kFsdp * kTp;
constexpr std::int64_t kLocalBatch = 4;
constexpr int kStepsPerLaunch = 2;
constexpr int kEvalBatches = 2;
constexpr int kEmptyLaunches = 8;

struct Launch {
  double ms = 0.0;
  double construct_ms = 0.0;
  double resume_ms = 0.0;
  std::int64_t resumed_at = -1;
  double loss = 0.0;         ///< last step's training loss
  double eval_before = 0.0;  ///< held-out loss before the first step
  double eval_after = 0.0;   ///< held-out loss after the last step
  double rss_after_mb = 0.0;
  bool ok = false;
  std::string error;
};

/// Run one launch of `steps` steps. With a non-empty `prefix` the launch
/// resumes from and checkpoints to it; without, it trains from scratch.
/// With `eval`, the held-out loss is measured before and after training.
Launch launch(const model::VitConfig& cfg,
              const data::MultiSourceDataset& corpus, std::uint64_t seed,
              const std::string& prefix, int steps,
              const std::vector<train::Batch>* eval = nullptr) {
  Launch out;
  const Clock::time_point t0 = Clock::now();
  try {
    comm::run_spmd(kWorld, [&](comm::RankContext& ctx) {
      const bool lead = ctx.rank() == 0;
      core::DistributedTrainerConfig tc;
      tc.engine.ddp = kDdp;
      tc.engine.fsdp = kFsdp;
      tc.engine.tp = kTp;
      tc.clip_norm = 1.0;
      if (!prefix.empty()) {
        tc.checkpoint_every = steps;
        tc.checkpoint_prefix = prefix;
        tc.checkpoint_keep_last = 2;
      }
      Clock::time_point t = Clock::now();
      core::DistributedOrbitModel m(cfg, ctx, tc);
      if (lead) out.construct_ms = ms_since(t);
      // The data stream rides along in checkpoints, so a resumed chain
      // draws exactly the batches an uninterrupted run would.
      Rng data_rng(seed * 1000003u + static_cast<std::uint64_t>(m.data_shard()));
      m.attach_rng(&data_rng);
      t = Clock::now();
      const std::int64_t from = prefix.empty() ? 0 : m.resume_latest();
      if (lead) {
        out.resume_ms = ms_since(t);
        out.resumed_at = from;
      }
      auto eval_loss = [&] {
        if (eval == nullptr) return 0.0;
        const Tensor latw = metrics::latitude_weights(cfg.image_h);
        double sum = 0.0;
        for (const train::Batch& b : *eval) {
          sum += metrics::wmse(m.forward(b.inputs, b.lead_days), b.targets, latw);
        }
        return sum / static_cast<double>(eval->size());
      };
      const double before = eval_loss();
      std::vector<std::int64_t> idx(kLocalBatch);
      double loss = 0.0;
      for (int s = 0; s < steps; ++s) {
        for (auto& i : idx) {
          i = static_cast<std::int64_t>(
              data_rng.uniform_int(static_cast<std::uint64_t>(corpus.size())));
        }
        loss = m.train_step(data::collate(
            [&](std::int64_t i) { return corpus.at(i); }, idx));
      }
      const double after = eval_loss();
      if (lead) {
        out.loss = loss;
        out.eval_before = before;
        out.eval_after = after;
      }
    });
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.ms = ms_since(t0);
  out.rss_after_mb = current_rss_mb();
  return out;
}

/// `n` resumed launches into a fresh checkpoint directory; the last one
/// also measures the held-out loss.
std::vector<Launch> chain(const model::VitConfig& cfg,
                          const data::MultiSourceDataset& corpus,
                          const std::vector<train::Batch>& eval,
                          std::uint64_t seed, const fs::path& dir, int n) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "hs").string();
  std::vector<Launch> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(launch(cfg, corpus, seed, prefix, kStepsPerLaunch,
                         i + 1 == n ? &eval : nullptr));
  }
  return out;
}

/// Bytes on disk of the newest generation in `dir`.
double generation_bytes(const fs::path& dir, std::int64_t step) {
  const std::string tag = "hs.step" + std::to_string(step) + ".";
  double bytes = 0.0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind(tag, 0) == 0 && e.is_regular_file()) {
      bytes += static_cast<double>(e.file_size());
    }
  }
  return bytes;
}

}  // namespace

Result relaunch(const Plan& plan) {
  Result r;
  r.workload = "relaunch";
  const model::VitConfig cfg = model::tiny_test();
  r.model = cfg.name;
  const fs::path root = plan.scratch.empty() ? fs::path("relaunch.ckpt")
                                             : fs::path(plan.scratch);
  const int n = plan.launches;

  // Set-up: the corpus plus the uninterrupted reference launch the
  // resumed chain must reproduce.
  const Clock::time_point t0 = Clock::now();
  const data::MultiSourceDataset corpus = training_corpus();
  const std::vector<train::Batch> eval = eval_batches(kLocalBatch, kEvalBatches);
  const Launch reference =
      launch(cfg, corpus, plan.seed, "", n * kStepsPerLaunch, &eval);
  r.setup_s.push_back(seconds_since(t0));

  std::vector<Launch> plain, traced;
  if (plan.plain) {
    plain = chain(cfg, corpus, eval, plan.seed, root / "plain", n);
    r.peak_rss_mb = peak_rss_mb();
    for (const Launch& l : plain) r.op_ms.push_back(l.ms);
    r.items = static_cast<double>(plain.size());
    r.loss = plain.back().eval_after;
  }
  if (plan.traced_s > 0.0) {
    {
      trace::ScopedTrace capture;
      traced = chain(cfg, corpus, eval, plan.seed, root / "traced", n);
    }
    std::vector<double> ckpt_ms, construct, resume, empty_ms;
    auto spans = collect_spans(trace::snapshot());
    for (const SpanRec& s : spans["rank 0"]) {
      if (s.name == "hs.checkpoint") ckpt_ms.push_back(s.ms);
    }
    for (const Launch& l : traced) {
      construct.push_back(l.construct_ms);
      resume.push_back(l.resume_ms);
    }
    trace::reset();
    for (int i = 0; i < kEmptyLaunches; ++i) {
      const Clock::time_point t = Clock::now();
      comm::run_spmd(kWorld, [](comm::RankContext&) {});
      empty_ms.push_back(ms_since(t));
    }
    r.layer["comm.launch_ms"] = median(empty_ms);
    r.layer["core.construct_ms"] = median(construct);
    r.layer["core.resume_ms"] = median(resume);
    r.layer["core.checkpoint_ms"] = median(ckpt_ms);
    r.layer["core.checkpoint_bytes"] = generation_bytes(
        root / "traced", static_cast<std::int64_t>(n) * kStepsPerLaunch);
    r.layer["trace.rss_per_launch_mb"] =
        (traced.back().rss_after_mb - traced.front().rss_after_mb) / (n - 1);
    if (plan.plain) {
      std::vector<double> a, b;
      for (const Launch& l : plain) a.push_back(l.ms);
      for (const Launch& l : traced) b.push_back(l.ms);
      r.layer["trace.overhead_share"] = overhead_share(a, b);
    }
  }

  bool all_ok = reference.ok, resumed = true, bitwise = true, finite = true;
  for (const std::vector<Launch>* c : {&plain, &traced}) {
    for (std::size_t i = 0; i < c->size(); ++i) {
      const Launch& l = (*c)[i];
      all_ok = all_ok && l.ok;
      resumed = resumed && l.resumed_at == static_cast<std::int64_t>(i) * kStepsPerLaunch;
      finite = finite && std::isfinite(l.loss);
      ++r.attempted;
      r.failed += l.ok ? 0 : 1;
      if (!l.ok) r.notes["launch_error"] = l.error;
    }
    if (!c->empty()) {
      bitwise = bitwise && same_bits(c->back().loss, reference.loss) &&
                same_bits(c->back().eval_after, reference.eval_after);
    }
  }
  r.check("launches_ok", all_ok, reference.ok ? "" : reference.error);
  r.check("loss_finite", finite && std::isfinite(reference.loss));
  r.check("loss_decreases", reference.eval_after < reference.eval_before,
          "held-out loss after the reference launch is not below its initial value");
  r.check("resumed_each_generation", resumed,
          "a launch did not resume from the previous launch's generation");
  r.check("resume_bitwise", bitwise,
          "resumed chain's final loss differs from one uninterrupted launch");
  fs::remove_all(root / "plain");
  fs::remove_all(root / "traced");
  return r;
}

}  // namespace perfbench
