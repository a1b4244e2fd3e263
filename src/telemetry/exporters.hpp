#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"

/// \file exporters.hpp
/// The two export surfaces of the telemetry registry (DESIGN.md §4h):
///
///  * **Prometheus text exposition** — `to_prometheus()` renders a snapshot
///    in the text format scrapers ingest (counters/gauges verbatim,
///    histograms as summaries: `{quantile="0.5"}` series plus `_sum` and
///    `_count`). `write_prometheus()` drops it in a file;
///    `tools/metrics_report --serve` bridges a file to HTTP for scraping.
///
///  * **JSONL time series** — `to_jsonl_record()` renders one
///    `{"ts_ns": ..., "metrics": {"<series id>": value, ...}}` line. Series
///    ids are exactly the exposition ids, so the two exporters (and the
///    bench `--json` embeds) agree on naming. Histogram quantile entries in
///    a JSONL record come from the *rolling window* (the interval since the
///    previous record), which is what makes the appended file a usable
///    latency time series; `_sum`/`_count` stay cumulative.
///
/// `ExportLoop` is the periodic appender behind the two strict env knobs:
/// `ORBIT_METRICS_OUT` (JSONL path; unset disables) and
/// `ORBIT_METRICS_INTERVAL_MS` (default 1000). Long-running tools
/// (serve_loadgen, trace_report --capture) hold one for their lifetime.

namespace orbit::telemetry {

/// Refresh process-level info gauges — currently the kernels dispatch level
/// (`kernels_active_isa{level="..."}` one-hot) — so every export path sees
/// them without the kernels layer depending on telemetry.
void refresh_runtime_info();

/// `refresh_runtime_info()` + `Registry::global().snapshot(rotate)`: the
/// one-call scrape every exporter, bench embed, and postmortem uses.
RegistrySnapshot scrape(bool rotate_windows = false);

/// --- Prometheus text exposition -------------------------------------------

std::string to_prometheus(const RegistrySnapshot& snap);
/// Returns false and sets `err` on I/O failure.
bool write_prometheus(const RegistrySnapshot& snap, const std::string& path,
                      std::string* err = nullptr);

/// One parsed exposition sample (`name{labels} value`).
struct PromSample {
  std::string name;
  Labels labels;
  double value = 0.0;

  std::optional<std::string> label(const std::string& key) const;
};

/// Parse exposition text (comment lines ignored). Throws std::runtime_error
/// naming the first malformed line — the serve_loadgen exit check and the
/// golden tests read exported numbers back through this.
std::vector<PromSample> parse_prometheus(const std::string& text);

/// --- JSONL time series ----------------------------------------------------

/// Flattened (series id, value) pairs: counters and gauges one entry each;
/// histograms expand to `{quantile=...}`/`_sum`/`_count` entries. Quantiles
/// read the rolling window when `window_quantiles` (JSONL mode), else the
/// cumulative distribution (exposition mode).
std::vector<std::pair<std::string, double>> flat_series(
    const RegistrySnapshot& snap, bool window_quantiles);

/// One JSONL record (newline-terminated). Values are `json::number`s, so a
/// non-finite value (a NaN loss gauge) is written `null`.
std::string to_jsonl_record(const RegistrySnapshot& snap);

/// --- periodic appender ----------------------------------------------------

class ExportLoop {
 public:
  struct Options {
    std::string jsonl_path;
    std::chrono::milliseconds interval{1000};
  };

  /// Starts the exporter thread; appends one record per interval and a
  /// final record at destruction, so even a sub-interval run leaves data.
  explicit ExportLoop(Options opts);
  ~ExportLoop();
  ExportLoop(const ExportLoop&) = delete;
  ExportLoop& operator=(const ExportLoop&) = delete;

  /// Env-driven construction: nullptr when ORBIT_METRICS_OUT is unset, an
  /// armed loop when set; malformed values throw env::EnvError (strict
  /// contract).
  static std::unique_ptr<ExportLoop> from_env();

  const Options& options() const { return opts_; }

 private:
  void run();
  void append_record();

  Options opts_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace orbit::telemetry
