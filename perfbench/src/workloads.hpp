#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "trace/report.hpp"
#include "train/trainer.hpp"

/// \file workloads.hpp
/// The four benchmark workloads and the per-layer probes.
///
/// Every workload runs in up to two phases on freshly built state: an
/// untraced phase (the end-to-end numbers) and a traced phase (the
/// per-layer numbers, the trace overhead, and the bitwise traced/untraced
/// loss check). A phase always completes the workload's fixed operation
/// count — the one the reported loss belongs to — and then keeps going
/// until its duration has passed.

namespace perfbench {

struct Plan {
  std::uint64_t seed = 1;
  double plain_s = 0.0;   ///< untraced phase length, after the fixed ops
  double traced_s = 0.0;  ///< traced phase length, after the fixed ops
  bool plain = true;      ///< run the untraced phase at all
  int launches = 16;      ///< relaunch: launches per phase
  std::string scratch;    ///< relaunch: checkpoint directory (created/emptied)
};

Result train_serial(const Plan& plan);
Result train_hs(const Plan& plan);
Result serve(const Plan& plan);
Result relaunch(const Plan& plan);

/// Isolated layer timings that need no workload: GEMM layouts, q8 GEMM,
/// model components forward/backward, the loss, q8 serve forwards.
void layer_probes(Result& into);

/// The CMIP6-style corpus the workloads draw from. Its generator seed is
/// fixed; --seed picks the shuffle, the sampling and the arrivals, so the
/// reported losses compare across seeds.
orbit::data::MultiSourceDataset training_corpus();

/// `count` fixed batches of `batch` held-out samples: the loss the training
/// workloads report is measured on these.
std::vector<orbit::train::Batch> eval_batches(std::int64_t batch, int count);

/// One completed span of a trace track.
struct SpanRec {
  std::string name;
  std::string detail;       ///< axis tag of comm spans
  std::int64_t value = -1;  ///< bytes / batch size recorded at begin
  double ms = 0.0;
  bool in_step = false;     ///< inside a "*.step" span
};

/// Completed spans of every track, keyed by track label ("rank 0", ...).
std::map<std::string, std::vector<SpanRec>> collect_spans(
    const orbit::trace::TraceSnapshot& snap);

/// Durations (ms) of the spans named `name` in `spans`.
std::vector<double> durations(const std::vector<SpanRec>& spans,
                              const std::string& name);

/// median(b) / median(a) - 1: the traced phase's cost over the untraced
/// one (0 when either side has no samples).
double overhead_share(const std::vector<double>& plain_ms,
                      const std::vector<double>& traced_ms);

}  // namespace perfbench
