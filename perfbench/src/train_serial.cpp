/// train_serial: the single-worker baseline. `train::Trainer::train_step`
/// on tiny-large, batch 8 from the CMIP6 corpus through DataLoader and
/// collate, on one thread. No comm: all time is model, tensor/kernels and
/// train.

#include <cmath>
#include <memory>

#include "data/dataset.hpp"
#include "model/config.hpp"
#include "model/vit.hpp"
#include "trace/report.hpp"
#include "train/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace orbit;

constexpr std::int64_t kBatch = 8;
constexpr int kFixedSteps = 8;  ///< the reported loss is after this step
constexpr int kEvalBatches = 2;
constexpr int kExtraSetups = 4;  ///< set-ups timed besides the phases'

/// Everything a phase trains with, built from scratch.
struct Session {
  explicit Session(std::uint64_t seed)
      : corpus(training_corpus()),
        eval(eval_batches(kBatch, kEvalBatches)),
        model(model::tiny_large()),
        trainer(model, train::TrainerConfig{}),
        loader(corpus.size(), kBatch, seed) {}

  double eval_loss() {
    double sum = 0.0;
    for (const train::Batch& b : eval) sum += trainer.eval_loss(b);
    return sum / static_cast<double>(eval.size());
  }

  data::MultiSourceDataset corpus;
  std::vector<train::Batch> eval;
  model::OrbitModel model;
  train::Trainer trainer;
  data::DataLoader loader;
};

struct Phase {
  double eval_before = 0.0;  ///< held-out loss at initialisation
  double eval_after = 0.0;   ///< held-out loss after the fixed steps
  std::vector<double> losses;
  std::vector<double> step_ms;   ///< loader + collate + train_step
  std::vector<double> batch_ms;  ///< loader + collate
};

std::unique_ptr<Session> timed_session(std::uint64_t seed, Result& r) {
  const Clock::time_point t0 = Clock::now();
  auto s = std::make_unique<Session>(seed);
  r.setup_s.push_back(seconds_since(t0));
  return s;
}

Phase run_phase(Session& s, double seconds) {
  Phase p;
  std::vector<std::int64_t> idx;
  auto step = [&] {
    const Clock::time_point t0 = Clock::now();
    if (!s.loader.next(idx)) {
      s.loader.new_epoch();
      s.loader.next(idx);
    }
    train::Batch b = data::collate(
        [&](std::int64_t i) { return s.corpus.at(i); }, idx);
    p.batch_ms.push_back(ms_since(t0));
    p.losses.push_back(s.trainer.train_step(b));
    p.step_ms.push_back(ms_since(t0));
  };
  p.eval_before = s.eval_loss();
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kFixedSteps; ++i) step();
  p.eval_after = s.eval_loss();
  while (seconds_since(start) < seconds) step();
  return p;
}

}  // namespace

Result train_serial(const Plan& plan) {
  Result r;
  r.workload = "train_serial";
  r.model = model::tiny_large().name;
  for (int i = 0; i < kExtraSetups; ++i) timed_session(plan.seed, r);

  Phase plain;
  if (plan.plain) {
    auto s = timed_session(plan.seed, r);
    plain = run_phase(*s, plan.plain_s);
    // The first step pays one-off allocation; it is attempted, not timed.
    r.op_ms.assign(plain.step_ms.begin() + 1, plain.step_ms.end());
    r.items = static_cast<double>(r.op_ms.size() * kBatch);
    r.loss = plain.eval_after;
    r.peak_rss_mb = peak_rss_mb();
  }

  Phase traced;
  {
    auto s = timed_session(plan.seed, r);
    orbit::trace::ScopedTrace capture;
    traced = run_phase(*s, plan.traced_s);
  }
  if (plan.traced_s > 0.0) {
    const auto spans = collect_spans(orbit::trace::snapshot());
    std::vector<SpanRec> all;
    for (const auto& [label, v] : spans) all.insert(all.end(), v.begin(), v.end());
    const double clip = mean(durations(all, "train.grad_clip"));
    r.layer["train.clip_ms"] = clip;
    r.layer["train.optimizer_ms"] = mean(durations(all, "train.optimizer")) - clip;
    r.layer["data.batch_ms"] = median(traced.batch_ms);
    if (plan.plain) {
      r.layer["trace.overhead_share"] =
          overhead_share(plain.step_ms, traced.step_ms);
    }
  }
  orbit::trace::reset();

  const Phase& ref = plan.plain ? plain : traced;
  bool finite = true;
  for (const Phase* p : {&plain, &traced}) {
    for (double l : p->losses) finite = finite && std::isfinite(l);
  }
  r.check("loss_finite", finite && std::isfinite(ref.eval_after));
  r.check("loss_decreases", ref.eval_after < ref.eval_before,
          "held-out loss after the fixed steps is not below its initial value");
  if (plan.plain) {
    bool same = same_bits(plain.eval_after, traced.eval_after);
    for (int i = 0; i < kFixedSteps; ++i) {
      same = same && same_bits(plain.losses[i], traced.losses[i]);
    }
    r.check("trace_bitwise", same,
            "traced and untraced losses differ in the fixed steps");
  }
  r.attempted = static_cast<std::int64_t>(plain.losses.size() + traced.losses.size());
  for (const Phase* p : {&plain, &traced}) {
    for (double l : p->losses) r.failed += std::isfinite(l) ? 0 : 1;
  }
  return r;
}

}  // namespace perfbench
