#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file common.hpp
/// Shared pieces of the benchmark binary: the raw result every workload
/// fills, wall-clock helpers, order statistics and process memory probes.
///
/// A workload reports raw samples (per-operation times, set-up times) and
/// scalars; perfbench/run.py turns them into the named metrics, so the
/// percentile method lives in one place for every workload.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// Milliseconds elapsed since `t0`.
double ms_since(Clock::time_point t0);

/// Median of `xs` (0 when empty). Takes a copy: callers keep their order.
double median(std::vector<double> xs);

/// Linear-interpolated quantile `q` in [0, 1] of `xs` (0 when empty).
double quantile(std::vector<double> xs, double q);

double mean(const std::vector<double>& xs);

/// High-water resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Current resident set of this process, MB (/proc/self/statm).
double current_rss_mb();

/// Everything one workload run reports. `layer` holds the per-layer
/// metrics (traced runs only); `checks` the output checks, each of which
/// must be true for the run to count as correct.
struct Result {
  std::string workload;
  std::string model;
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<double> op_ms;    ///< one entry per measured operation
  double busy_s = 0.0;          ///< open loop: first due time to last completion
  double items = 0.0;           ///< samples / requests / launches done
  double loss = 0.0;            ///< the workload's output wMSE
  double peak_rss_mb = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, bool> checks;
  std::map<std::string, std::string> notes;  ///< why a check failed, etc.
  std::map<std::string, double> layer;
  std::map<std::string, std::string> context;  ///< machine and build facts

  void check(const std::string& name, bool ok, const std::string& why = "");
  /// Copy `other`'s layer metrics and checks that this result lacks,
  /// prefixing the checks with `other.workload` (the traced run folds the
  /// short traced probes of the other workloads in this way).
  void absorb(const Result& other);
  std::string json() const;
};

/// True when `a` and `b` have the same bit pattern (the traced/untraced
/// and resume-vs-uninterrupted loss contracts are bitwise).
bool same_bits(double a, double b);

}  // namespace perfbench
