#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hpp"

/// \file report.hpp
/// The collector side of `orbit::trace`: merge the per-thread ring buffers
/// into (a) Chrome trace-event JSON — one track per simulated rank /
/// labelled thread, loadable in Perfetto or chrome://tracing — and (b) an
/// aggregated compute/comm breakdown (the Fig. 7 quantities: per-rank comm
/// fraction, collective time and bytes per parallel axis, straggler spread
/// over step times).
///
/// `load_chrome_json` parses the JSON this module writes (plus any
/// conforming trace-event file), so `tools/trace_report` can analyse a
/// capture from an earlier run. Both directions go through `orbit::json`
/// (`json/json.hpp`): its reader, and its `escape` for every string.

namespace orbit::trace {

namespace detail {
/// A consistent copy of one thread's ring, taken by `snapshot_rings()`.
struct RingSnapshot {
  std::string label;           ///< "rank 0", "serve.worker 2", "thread #7"
  const char* role = "thread";
  int index = -1;
  int tid = 0;
  std::uint64_t dropped = 0;   ///< events lost to ring wraparound
  std::vector<RawEvent> events;
};
std::vector<RingSnapshot> snapshot_rings();
}  // namespace detail

/// A decoded event (strings owned, safe to keep across `reset()`).
struct TraceEvent {
  std::uint64_t ts_ns = 0;
  EventKind kind = EventKind::kInstant;
  Category cat = Category::kOther;
  std::string name;
  std::string detail;       ///< axis tag for comm events; empty otherwise
  std::int64_t value = -1;  ///< bytes / counter value / batch size
  std::uint64_t flow = 0;
};

/// One merged track (one recording thread; one per rank under run_spmd).
struct TraceTrack {
  std::string label;
  int tid = 0;
  int sort_key = 0;         ///< rank tracks first, by rank
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;  ///< timestamp-ordered
};

struct TraceSnapshot {
  std::vector<TraceTrack> tracks;
  bool empty() const;
};

/// Merge every thread's ring into a snapshot. Intended for quiescent
/// capture points (after run_spmd joins / server shutdown); a concurrent
/// recorder's in-flight events may be dropped but never corrupt the result.
TraceSnapshot snapshot();

/// --- Chrome trace-event JSON ---------------------------------------------

std::string to_chrome_json(const TraceSnapshot& snap);
/// Returns false and sets `err` on I/O failure.
bool write_chrome_json(const TraceSnapshot& snap, const std::string& path,
                       std::string* err = nullptr);
/// Parse a trace-event file ({"traceEvents": [...]} or a bare array).
/// Throws std::runtime_error naming the first malformed construct (for
/// malformed JSON, `orbit::json::parse`'s byte offset; for an integer field
/// such as `tid` or `ts` that does not fit its type, the field's name).
TraceSnapshot parse_chrome_json(const std::string& text);
TraceSnapshot load_chrome_json(const std::string& path);

/// --- aggregation ----------------------------------------------------------

/// Collective time/bytes attributed to one process-group axis (tp / fsdp /
/// ddp / data / world / group).
struct AxisStat {
  std::string axis;
  double time_ms = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
};

/// Inclusive time per top-level span name ("train.step", "hs.forward", ...).
struct PhaseStat {
  std::string name;
  double time_ms = 0.0;
  std::uint64_t count = 0;
};

struct TrackBreakdown {
  std::string label;
  double busy_ms = 0.0;       ///< sum of top-level span durations
  double comm_ms = 0.0;       ///< sum of comm-category span durations
  double compute_ms = 0.0;    ///< busy - comm (clamped at 0)
  double comm_fraction = 0.0; ///< comm / busy; 0 when idle
  /// Comm time covered by an async op's in-flight window: for each
  /// "comm.X.wait" span, up to (wait begin - matching "comm.X.issue" end)
  /// of its duration was concurrent with local compute and is counted
  /// hidden; the remainder is exposed. Synchronous collectives have no
  /// in-flight window and are fully exposed.
  double comm_hidden_ms = 0.0;
  double exposed_comm_fraction = 0.0;  ///< (comm - hidden) / busy
  std::uint64_t comm_bytes = 0;
  std::uint64_t dropped = 0;
  std::vector<AxisStat> axes;
  std::vector<PhaseStat> phases;
  std::vector<double> step_ms;  ///< durations of "*.step" spans, in order
};

/// The Fig. 7-style summary. Aggregates cover rank tracks when any exist
/// (so serve/helper threads don't skew a training breakdown), else all.
struct BreakdownReport {
  std::vector<TrackBreakdown> tracks;
  double mean_comm_fraction = 0.0;
  /// Mean of exposed_comm_fraction over rank tracks: the comm share that
  /// was NOT hidden behind compute by nonblocking issue (ORBIT_COMM_ASYNC).
  /// Equals mean_comm_fraction when no async collectives were traced.
  double mean_exposed_comm_fraction = 0.0;
  std::vector<AxisStat> axes_total;
  /// Straggler spread over per-rank mean step time; zeros when no steps.
  double step_min_ms = 0.0;
  double step_median_ms = 0.0;
  double step_max_ms = 0.0;

  std::string text() const;  ///< human-readable report
  std::string json() const;  ///< machine-readable summary
};

BreakdownReport summarize(const TraceSnapshot& snap);

/// Structural validation: events per track must be timestamp-monotonic,
/// begin/end balanced and properly nested, categories/kinds decodable.
/// Returns a description of the first violation, or nullopt when clean.
std::optional<std::string> validate(const TraceSnapshot& snap);

}  // namespace orbit::trace
