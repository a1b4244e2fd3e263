/// serve: an open loop of Poisson arrivals at a fixed rate, from one
/// generator thread, into `serve::ForecastServer` (2 workers, q8 weights,
/// max batch 8) on tiny-small. 80% of requests are 1-step forecasts and 20%
/// 4-step rollouts, so the batcher also groups by `steps`. Latency counts
/// from each request's due time, so a late generator cannot hide queueing.

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <thread>

#include "data/dataset.hpp"
#include "metrics/metrics.hpp"
#include "model/config.hpp"
#include "model/rollout.hpp"
#include "model/vit.hpp"
#include "serve/server.hpp"
#include "trace/report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace orbit;

constexpr double kRatePerS = 400.0;   ///< about half of q8 capacity
constexpr double kRolloutShare = 0.2;
constexpr int kRolloutSteps = 4;
constexpr std::size_t kStates = 128;  ///< distinct initial states
constexpr std::size_t kCheckEvery = 97;  ///< every n-th request is re-run
constexpr double kCheckTol = 1e-5;
constexpr int kExtraSetups = 4;

serve::ServerConfig server_config() {
  serve::ServerConfig c;
  c.workers = 2;
  c.quantize_weights = true;
  c.batcher.max_batch = 8;
  return c;
}

struct Arrival {
  double at_s;
  std::size_t state;
  int steps;
};

/// The seed's arrival schedule over `seconds` (always at least one).
std::vector<Arrival> schedule(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / kRatePerS;
    if (t >= seconds && !out.empty()) return out;
    Arrival a;
    a.at_s = t;
    a.state = static_cast<std::size_t>(rng.uniform_int(kStates));
    a.steps = rng.uniform() < kRolloutShare ? kRolloutSteps : 1;
    out.push_back(a);
  }
}

struct Phase {
  std::vector<double> latency_ms;  ///< from due time, completed requests
  std::vector<double> queue_ms;
  std::vector<double> late_ms;     ///< generator send lateness
  double elapsed_s = 0.0;          ///< first due time to last completion
  double wmse = 0.0;               ///< mean over completed 1-step requests
  std::int64_t submitted = 0, completed = 0;
  std::int64_t backlog = 0;        ///< unfinished when the schedule ended
  bool balanced = false;
  double max_check_err = 0.0;
  std::size_t checked = 0;
};

Phase run_phase(serve::ForecastServer& server,
                const std::vector<data::ForecastSample>& states,
                const std::vector<Arrival>& arrivals,
                model::OrbitModel& reference) {
  const Tensor latw = metrics::latitude_weights(server.model_config().image_h);
  Phase p;
  std::vector<std::future<serve::ForecastResult>> futures;
  futures.reserve(arrivals.size());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (const Arrival& a : arrivals) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(a.at_s));
    // Sleeping, not spinning, keeps the generator off the workers' cores;
    // the wake-up lateness is measured and counted in every latency.
    std::this_thread::sleep_until(due);
    serve::ForecastRequest req;
    req.state = states[a.state].input;
    req.lead_days = states[a.state].lead_days;
    req.steps = a.steps;
    p.late_ms.push_back(ms_since(due));
    futures.push_back(server.submit(std::move(req)));
  }
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++p.backlog;
    }
  }
  double wmse_sum = 0.0;
  std::int64_t wmse_n = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::ForecastResult res = futures[i].get();
    ++p.submitted;
    if (res.status != serve::Status::kOk) continue;
    ++p.completed;
    p.latency_ms.push_back(p.late_ms[i] + res.total_us / 1e3);
    p.queue_ms.push_back(res.queue_us / 1e3);
    const data::ForecastSample& s = states[arrivals[i].state];
    const Tensor pred = res.forecast.reshape({1, s.target.dim(0), s.target.dim(1),
                                              s.target.dim(2)});
    if (arrivals[i].steps == 1) {
      wmse_sum += metrics::wmse(
          pred, s.target.reshape(pred.shape()), latw);
      ++wmse_n;
    }
    if (i % kCheckEvery == 0) {
      const Tensor x = s.input.reshape({1, s.input.dim(0), s.input.dim(1),
                                        s.input.dim(2)});
      const Tensor want = model::forecast(
          reference, x, Tensor::full({1}, s.lead_days), arrivals[i].steps);
      for (std::int64_t j = 0; j < want.numel(); ++j) {
        p.max_check_err = std::max(
            p.max_check_err,
            static_cast<double>(std::fabs(want[j] - res.forecast[j])));
      }
      ++p.checked;
    }
  }
  p.elapsed_s = seconds_since(t0);
  p.wmse = wmse_n ? wmse_sum / static_cast<double>(wmse_n) : 0.0;
  server.shutdown();
  const serve::StatsSnapshot st = server.stats();
  p.balanced = st.submitted == static_cast<std::uint64_t>(p.submitted) &&
               st.submitted ==
                   st.completed + st.shed + st.expired + st.rejected + st.errors;
  return p;
}

}  // namespace

Result serve(const Plan& plan) {
  Result r;
  r.workload = "serve";
  const model::VitConfig cfg = model::tiny_small();
  r.model = cfg.name;

  // Set-up: the request states and a quantized two-replica server.
  std::vector<data::ForecastSample> states;
  auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    const data::MultiSourceDataset corpus = training_corpus();
    Rng pick(plan.seed ^ 0x5e7e);
    states.clear();
    for (std::size_t i = 0; i < kStates; ++i) {
      states.push_back(corpus.at(static_cast<std::int64_t>(
          pick.uniform_int(static_cast<std::uint64_t>(corpus.size())))));
    }
    auto server = std::make_unique<serve::ForecastServer>(cfg, server_config());
    r.setup_s.push_back(seconds_since(t0));
    return server;
  };
  for (int i = 0; i < kExtraSetups; ++i) setup();

  model::OrbitModel reference(cfg);
  reference.quantize_weights();

  Phase plain, traced;
  if (plan.plain) {
    auto server = setup();
    plain = run_phase(*server, states, schedule(plan.seed, plan.plain_s),
                      reference);
    r.op_ms = plain.latency_ms;
    r.busy_s = plain.elapsed_s;
    r.items = static_cast<double>(plain.completed);
    r.loss = plain.wmse;
    r.peak_rss_mb = peak_rss_mb();
  }
  if (plan.traced_s > 0.0) {
    auto server = setup();
    {
      trace::ScopedTrace capture;
      traced = run_phase(*server, states, schedule(plan.seed + 1, plan.traced_s),
                         reference);
    }
    std::vector<SpanRec> infer;
    for (const auto& [label, v] : collect_spans(trace::snapshot())) {
      for (const SpanRec& s : v) {
        if (s.name == "serve.infer") infer.push_back(s);
      }
    }
    std::vector<double> infer_ms, batch;
    for (const SpanRec& s : infer) {
      infer_ms.push_back(s.ms);
      batch.push_back(static_cast<double>(s.value));
    }
    // The request-latency tail, untraced when this run has that phase.
    r.layer["serve.latency_p99_ms"] =
        quantile(plan.plain ? plain.latency_ms : traced.latency_ms, 0.99);
    r.layer["serve.queue_p50_ms"] = quantile(traced.queue_ms, 0.5);
    r.layer["serve.queue_p99_ms"] = quantile(traced.queue_ms, 0.99);
    r.layer["serve.compute_ms"] = median(infer_ms);
    r.layer["serve.mean_batch"] = mean(batch);
    r.layer["serve.generator_late_ms"] = quantile(traced.late_ms, 0.99);
    r.layer["serve.backlog"] = static_cast<double>(traced.backlog);
    if (plan.plain) {
      r.layer["trace.overhead_share"] =
          overhead_share(plain.latency_ms, traced.latency_ms);
    }
    trace::reset();
  }

  std::size_t checked = 0;
  double worst = 0.0;
  bool balanced = true;
  for (const Phase* p : {&plain, &traced}) {
    if (p->submitted == 0) continue;
    checked += p->checked;
    worst = std::max(worst, p->max_check_err);
    balanced = balanced && p->balanced;
    r.attempted += p->submitted;
    r.failed += p->submitted - p->completed;
  }
  r.check("accounting_balanced", balanced,
          "submitted != completed + shed + expired + rejected + errors");
  r.check("forecast_matches_direct_q8", checked > 0 && worst <= kCheckTol,
          "max |served - direct q8 forecast| = " + std::to_string(worst));
  r.notes["backlog_at_end"] = std::to_string(plain.backlog);
  return r;
}

}  // namespace perfbench
