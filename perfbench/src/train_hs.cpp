/// train_hs: the paper's Hybrid-STOP step. `DistributedOrbitModel::
/// train_step` on tiny-medium over a ddp=1 x fsdp=2 x tp=2 mesh (4 rank
/// threads, one per core). Each data shard has its own loader; one
/// run_spmd launch runs every phase, so launch cost stays in set-up.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

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

constexpr int kDdp = 1, kFsdp = 2, kTp = 2;
constexpr int kWorld = kDdp * kFsdp * kTp;
/// x 2 data shards = 32 per step. Each step issues a fixed ~280
/// collectives, and every wait can stall on a descheduled vCPU; a batch of
/// 4 per shard left the step so short that those stalls set its time.
constexpr std::int64_t kLocalBatch = 16;
constexpr int kFixedSteps = 16;
constexpr int kEvalBatches = 4;
constexpr double kChunkS = 1.0;  ///< steps are agreed on this often
constexpr int kExtraSetups = 4;   ///< launch-and-build-only set-ups
constexpr int kCollectiveReps = 20;
constexpr int kCollectiveChunks = 10;

core::DistributedTrainerConfig trainer_config() {
  core::DistributedTrainerConfig c;
  c.engine.ddp = kDdp;
  c.engine.fsdp = kFsdp;
  c.engine.tp = kTp;
  c.clip_norm = 1.0;
  return c;
}

/// Rank 0's record of one phase (every rank computes the same losses).
struct Phase {
  double eval_before = 0.0;  ///< held-out loss at initialisation
  double eval_after = 0.0;   ///< held-out loss after the fixed steps
  std::vector<double> losses;
  std::vector<double> step_ms;
  std::vector<double> batch_ms;
};

/// Message sizes (floats) of the step's collectives, read off the trace.
struct MessageSizes {
  std::int64_t fsdp_shard = 0;  ///< all_gather shard / reduce_scatter out
  std::int64_t tp_numel = 0;    ///< all_reduce tensor
};

std::int64_t most_common(const std::map<std::int64_t, int>& counts) {
  std::int64_t best = 0;
  int n = 0;
  for (const auto& [v, c] : counts) {
    if (c > n) best = v, n = c;
  }
  return best;
}

/// With ddp = 1 the data group has the FSDP group's members, so the two
/// share one communicator and its spans carry whichever tag was set last.
bool fsdp_axis(const std::string& tag) { return tag == "fsdp" || tag == "data"; }

MessageSizes step_message_sizes(const std::vector<SpanRec>& rank0) {
  std::map<std::int64_t, int> gather, allreduce;
  for (const SpanRec& s : rank0) {
    if (!s.in_step || s.value <= 0) continue;
    if (s.name == "comm.all_gather" && fsdp_axis(s.detail)) ++gather[s.value];
    if (s.name == "comm.all_reduce" && s.detail == "tp") ++allreduce[s.value];
  }
  // Traffic bytes are (p - 1) * per-rank payload * sizeof(float).
  MessageSizes m;
  m.fsdp_shard = most_common(gather) / ((kFsdp - 1) * 4);
  m.tp_numel = most_common(allreduce) / ((kTp - 1) * 4);
  return m;
}

/// Microseconds per call of `op`, the median over chunks of back-to-back
/// calls. Every rank of the group calls it; rank 0's clock is reported.
template <class Op>
double time_collective(Op op) {
  std::vector<double> chunk_us;
  op();  // warm
  for (int c = 0; c < kCollectiveChunks; ++c) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCollectiveReps; ++i) op();
    chunk_us.push_back(ms_since(t0) * 1e3 / kCollectiveReps);
  }
  return median(chunk_us);
}

}  // namespace

Result train_hs(const Plan& plan) {
  Result r;
  r.workload = "train_hs";
  r.model = model::tiny_medium().name;
  const model::VitConfig cfg = model::tiny_medium();

  for (int i = 0; i < kExtraSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    const data::MultiSourceDataset corpus = training_corpus();
    comm::run_spmd(kWorld, [&](comm::RankContext& ctx) {
      core::DistributedOrbitModel m(cfg, ctx, trainer_config());
      data::DataLoader loader(corpus.size(), kLocalBatch, plan.seed,
                              m.num_data_shards(), m.data_shard());
      m.world().barrier();
    });
    r.setup_s.push_back(seconds_since(t0));
  }

  const Clock::time_point setup0 = Clock::now();
  const data::MultiSourceDataset corpus = training_corpus();
  const std::vector<train::Batch> eval = eval_batches(kLocalBatch, kEvalBatches);
  const Tensor latw = metrics::latitude_weights(cfg.image_h);
  Phase plain, traced;
  MessageSizes sizes;
  std::map<std::string, double> collective_us;
  double setup_s = 0.0;

  comm::run_spmd(kWorld, [&](comm::RankContext& ctx) {
    const bool lead = ctx.rank() == 0;
    auto phase = [&](double seconds, Phase& out) {
      core::DistributedOrbitModel m(cfg, ctx, trainer_config());
      data::DataLoader loader(corpus.size(), kLocalBatch, plan.seed,
                              m.num_data_shards(), m.data_shard());
      m.world().barrier();
      if (lead && setup_s == 0.0) setup_s = seconds_since(setup0);
      // Every rank evaluates the same held-out batches, so the result is
      // the same on all of them.
      auto eval_loss = [&] {
        double sum = 0.0;
        for (const train::Batch& b : eval) {
          sum += metrics::wmse(m.forward(b.inputs, b.lead_days), b.targets, latw);
        }
        return sum / static_cast<double>(eval.size());
      };
      std::vector<std::int64_t> idx;
      auto step = [&] {
        const Clock::time_point t0 = Clock::now();
        if (!loader.next(idx)) {
          loader.new_epoch();
          loader.next(idx);
        }
        train::Batch b = data::collate(
            [&](std::int64_t i) { return corpus.at(i); }, idx);
        const double batch_ms = ms_since(t0);
        const double loss = m.train_step(b);
        if (lead) {
          out.batch_ms.push_back(batch_ms);
          out.losses.push_back(loss);
          out.step_ms.push_back(ms_since(t0));
        }
      };
      const double before = eval_loss();
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < kFixedSteps; ++i) step();
      const double after = eval_loss();
      if (lead) {
        out.eval_before = before;
        out.eval_after = after;
      }
      // Rank 0 sizes the rest of the phase from the pace so far, at most
      // kChunkS at a time, and every rank runs exactly that many more steps
      // (one collective per chunk, outside any step).
      for (int done = kFixedSteps;;) {
        Tensor extra = Tensor::full({1}, 0.0f);
        if (lead) {
          const double per_step = seconds_since(start) / done;
          const double left = std::min(kChunkS, seconds - seconds_since(start));
          extra[0] = static_cast<float>(std::max(0.0, std::ceil(left / per_step)));
        }
        m.world().all_reduce(extra, comm::ReduceOp::kMax);
        const int n = static_cast<int>(extra[0]);
        if (n == 0) return m.mesh();
        for (int i = 0; i < n; ++i) step();
        done += n;
      }
    };

    if (plan.plain) phase(plan.plain_s, plain);
    ctx.world_group().barrier();
    if (lead) {
      trace::reset();
      trace::set_enabled(true);
    }
    ctx.world_group().barrier();
    const core::HybridMesh mesh = phase(plan.traced_s, traced);
    ctx.world_group().barrier();
    if (lead) trace::set_enabled(false);
    ctx.world_group().barrier();
    if (plan.traced_s <= 0.0) return;

    // Isolated collectives at the step's message sizes, inside the running
    // world and untraced.
    if (lead) sizes = step_message_sizes(collect_spans(trace::snapshot())["rank 0"]);
    ctx.world_group().barrier();
    Tensor shard = Tensor::full({sizes.fsdp_shard}, 1.0f);
    Tensor full = Tensor::full({sizes.fsdp_shard * kFsdp}, 1.0f);
    Tensor act = Tensor::full({sizes.tp_numel}, 1.0f);
    const double ag = time_collective([&] { mesh.fsdp_group.all_gather(shard, full); });
    const double rs = time_collective([&] {
      mesh.fsdp_group.reduce_scatter(full, shard, comm::ReduceOp::kAvg);
    });
    const double ar = time_collective([&] { mesh.tp_group.all_reduce(act); });
    if (lead) {
      collective_us["comm.all_gather.fsdp_us"] = ag;
      collective_us["comm.reduce_scatter.fsdp_us"] = rs;
      collective_us["comm.all_reduce.tp_us"] = ar;
    }
  });
  r.setup_s.push_back(setup_s);

  constexpr double kGlobalBatch = kLocalBatch * kFsdp * kDdp;
  if (plan.plain) {
    r.op_ms.assign(plain.step_ms.begin() + 1, plain.step_ms.end());
    r.items = static_cast<double>(r.op_ms.size()) * kGlobalBatch;
    r.loss = plain.eval_after;
    r.peak_rss_mb = peak_rss_mb();
  }

  if (plan.traced_s > 0.0) {
    const trace::TraceSnapshot snap = trace::snapshot();
    const auto spans = collect_spans(snap);
    std::map<std::string, std::vector<double>> per_rank;  // phase -> rank means
    std::map<std::string, double> axis_bytes;
    double ops = 0.0;
    double steps = 0.0;
    for (const auto& [label, v] : spans) {
      if (label.rfind("rank ", 0) != 0) continue;
      const double n = static_cast<double>(durations(v, "hs.step").size());
      if (label == "rank 0") steps = n;
      for (const char* name : {"hs.forward", "hs.backward", "hs.sync_grads",
                               "hs.optimizer"}) {
        double sum = 0.0;
        for (double ms : durations(v, name)) sum += ms;
        per_rank[name].push_back(sum / n);
      }
      for (const SpanRec& s : v) {
        if (!s.in_step || s.name.rfind("comm.", 0) != 0 || s.value < 0) continue;
        // Each collective appears once per member; count it once.
        const std::string axis = fsdp_axis(s.detail) ? "fsdp" : s.detail;
        const double members = axis == "tp" ? kTp : axis == "fsdp" ? kFsdp
                             : axis == "world" ? kWorld : kDdp;
        axis_bytes[axis] += static_cast<double>(s.value) / members;
        ops += 1.0 / members;
      }
    }
    for (const auto& [name, means] : per_rank) {
      const std::string key = "core." + name.substr(3) + "_ms";
      r.layer[key + ".max"] = *std::max_element(means.begin(), means.end());
      r.layer[key + ".mean"] = mean(means);
    }
    const trace::BreakdownReport rep = trace::summarize(snap);
    r.layer["core.rank_skew"] =
        rep.step_median_ms > 0.0
            ? (rep.step_max_ms - rep.step_min_ms) / rep.step_median_ms
            : 0.0;
    r.layer["comm.exposed_fraction"] = rep.mean_exposed_comm_fraction;
    r.layer["comm.bytes_per_step.tp"] = axis_bytes["tp"] / steps;
    r.layer["comm.bytes_per_step.fsdp"] = axis_bytes["fsdp"] / steps;
    r.layer["comm.ops_per_step"] = ops / steps;
    for (const auto& [k, v] : collective_us) r.layer[k] = v;
    r.layer["data.batch_ms"] = median(traced.batch_ms);
    if (plan.plain) {
      r.layer["trace.overhead_share"] =
          overhead_share(plain.step_ms, traced.step_ms);
    }
  }
  trace::reset();

  const Phase& ref = plan.plain ? plain : traced;
  bool finite = true;
  for (const Phase* p : {&plain, &traced}) {
    for (double l : p->losses) finite = finite && std::isfinite(l);
    for (double l : p->losses) r.failed += std::isfinite(l) ? 0 : 1;
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
  return r;
}

}  // namespace perfbench
