#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "telemetry/exporters.hpp"
#include "tools/argparse.hpp"

/// \file bench_util.hpp
/// Shared formatting for the experiment-reproduction benches. Every bench
/// prints (a) what the paper reports and (b) what this reproduction
/// measures/models, so EXPERIMENTS.md rows can be regenerated mechanically.
/// `JsonReport` is the machine-readable side of the same contract: every
/// bench accepts `--json <path>` and emits its headline numbers as JSON.

namespace orbit::bench {

inline void header(const std::string& experiment, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

/// Engineering formatting: 684 PFLOPS, 1.6 EFLOPS, ...
inline std::string flops_str(double flops) {
  char buf[64];
  if (flops >= 1e18) {
    std::snprintf(buf, sizeof(buf), "%.2f EFLOPS", flops / 1e18);
  } else if (flops >= 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f PFLOPS", flops / 1e15);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f TFLOPS", flops / 1e12);
  }
  return buf;
}

inline std::string params_str(double params) {
  char buf[64];
  if (params >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fB", params / 1e9);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fM", params / 1e6);
  }
  return buf;
}

/// Machine-readable results sink shared by every `bench_*` binary.
///
/// Construct it from (argc, argv): the only accepted flag is
/// `--json <path>` ('-' = stdout); `--help` prints usage. The bench then
/// registers its headline numbers with `metric()` / `note()` as it prints
/// the human tables, and returns `finish()` from main(). Without `--json`
/// the report is a no-op, so the human output is unchanged.
///
/// Output shape (one object, insertion-ordered keys):
///   {"bench": "<name>", "metrics": {"k": 1.25, ...}, "notes": {"k": "v"},
///    "telemetry": {"<series id>": value, ...}}
/// The `telemetry` object is the final registry snapshot flattened with the
/// exporters' series naming (`comm_bytes_total{axis="fsdp"}`, ...), so a
/// bench report and a Prometheus scrape of the same run agree key-for-key.
/// Strings and numbers are written with `orbit::json` (non-finite = null).
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string bench_name)
      : name_(std::move(bench_name)) {
    tools::ArgParser args(
        argc, argv,
        {{"json",
          "write machine-readable results to this path ('-' = stdout)"}});
    path_ = args.get_str("json", "");
  }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }

  /// Exit code for main(): 0 unless a requested write failed.
  int finish() const {
    if (path_.empty()) return 0;
    const std::string body = to_json();
    if (path_ == "-") {
      std::fputs(body.c_str(), stdout);
      return 0;
    }
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f << body;
    if (!f) {
      std::fprintf(stderr, "%s: cannot write --json output to %s\n",
                   name_.c_str(), path_.c_str());
      return 1;
    }
    return 0;
  }

 private:
  std::string to_json() const {
    std::string out = "{\"bench\": \"" + json::escape(name_) + "\"";
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + json::escape(metrics_[i].first) +
             "\": " + json::number(metrics_[i].second);
    }
    out += "}, \"notes\": {";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + json::escape(notes_[i].first) + "\": \"" +
             json::escape(notes_[i].second) + "\"";
    }
    out += "}, \"telemetry\": {";
    const auto series = telemetry::flat_series(
        telemetry::scrape(), /*window_quantiles=*/false);
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + json::escape(series[i].first) +
             "\": " + json::number(series[i].second);
    }
    out += "}}\n";
    return out;
  }

  std::string name_;
  std::string path_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace orbit::bench
