#include "trace/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "json/json.hpp"

namespace orbit::trace {

namespace {

constexpr int kPid = 1;

bool is_rank_track(const std::string& label) {
  return label.rfind("rank ", 0) == 0;
}

const char* ph_of(EventKind k) {
  switch (k) {
    case EventKind::kBegin: return "B";
    case EventKind::kEnd: return "E";
    case EventKind::kCounter: return "C";
    case EventKind::kInstant: return "i";
    case EventKind::kFlowBegin: return "s";
    case EventKind::kFlowEnd: return "f";
  }
  return "i";
}

std::optional<EventKind> kind_of(const std::string& ph) {
  if (ph == "B") return EventKind::kBegin;
  if (ph == "E") return EventKind::kEnd;
  if (ph == "C") return EventKind::kCounter;
  if (ph == "i" || ph == "I" || ph == "R") return EventKind::kInstant;
  if (ph == "s") return EventKind::kFlowBegin;
  if (ph == "f" || ph == "t") return EventKind::kFlowEnd;
  return std::nullopt;
}

Category category_of(const std::string& cat) {
  if (cat == "compute") return Category::kCompute;
  if (cat == "comm") return Category::kComm;
  if (cat == "optimizer") return Category::kOptimizer;
  if (cat == "serve") return Category::kServe;
  if (cat == "data") return Category::kData;
  if (cat == "resilience") return Category::kResilience;
  return Category::kOther;
}

/// `v` truncated to `Int`, or the documented parse error naming `field`
/// when it does not fit: an out-of-range double-to-integer cast is
/// undefined behaviour, and JSON numbers are unbounded.
template <typename Int>
Int checked_int(double v, const char* field) {
  const double t = std::trunc(v);
  if (!(t >= static_cast<double>(std::numeric_limits<Int>::min()) &&
        t < static_cast<double>(std::numeric_limits<Int>::max()) + 1.0)) {
    throw std::runtime_error(std::string("trace JSON: field '") + field +
                             "' is out of range");
  }
  return static_cast<Int>(t);
}

}  // namespace

bool TraceSnapshot::empty() const {
  for (const auto& t : tracks) {
    if (!t.events.empty()) return false;
  }
  return true;
}

TraceSnapshot snapshot() {
  TraceSnapshot out;
  for (auto& ring : detail::snapshot_rings()) {
    TraceTrack track;
    track.label = ring.label;
    track.tid = ring.tid;
    track.dropped = ring.dropped;
    track.sort_key = (ring.role != nullptr &&
                      std::string(ring.role) == "rank" && ring.index >= 0)
                         ? ring.index
                         : 100000 + ring.tid;
    track.events.reserve(ring.events.size());
    for (const RawEvent& e : ring.events) {
      TraceEvent d;
      d.ts_ns = e.ts_ns;
      d.kind = e.kind;
      d.cat = e.cat;
      d.name = e.name != nullptr ? e.name : "";
      d.detail = e.detail != nullptr ? e.detail : "";
      d.value = e.value;
      d.flow = e.flow;
      track.events.push_back(std::move(d));
    }
    out.tracks.push_back(std::move(track));
  }
  std::sort(out.tracks.begin(), out.tracks.end(),
            [](const TraceTrack& a, const TraceTrack& b) {
              return a.sort_key != b.sort_key ? a.sort_key < b.sort_key
                                              : a.tid < b.tid;
            });
  return out;
}

// --- Chrome trace-event JSON writer ----------------------------------------

std::string to_chrome_json(const TraceSnapshot& snap) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                "\"args\":{\"name\":\"orbit\"}}",
                kPid);
  emit(buf);
  for (const auto& t : snap.tracks) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  kPid, t.tid, json::escape(t.label).c_str());
    emit(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"sort_index\":%d}}",
                  kPid, t.tid, t.sort_key);
    emit(buf);
    if (t.dropped > 0) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"name\":\"orbit_track_stats\",\"pid\":%d,"
                    "\"tid\":%d,\"args\":{\"dropped\":%llu}}",
                    kPid, t.tid,
                    static_cast<unsigned long long>(t.dropped));
      emit(buf);
    }
    for (const TraceEvent& e : t.events) {
      std::ostringstream ev;
      char ts[48];
      std::snprintf(ts, sizeof(ts), "%.3f",
                    static_cast<double>(e.ts_ns) / 1e3);  // microseconds
      ev << "{\"ph\":\"" << ph_of(e.kind) << "\",\"pid\":" << kPid
         << ",\"tid\":" << t.tid << ",\"ts\":" << ts;
      if (!e.name.empty()) ev << ",\"name\":\"" << json::escape(e.name) << '"';
      if (e.kind != EventKind::kCounter) {
        ev << ",\"cat\":\"" << category_name(e.cat) << '"';
      }
      if (e.kind == EventKind::kInstant) ev << ",\"s\":\"t\"";
      if (e.kind == EventKind::kFlowBegin || e.kind == EventKind::kFlowEnd) {
        ev << ",\"id\":" << e.flow;
        if (e.kind == EventKind::kFlowEnd) ev << ",\"bp\":\"e\"";
      }
      if (e.kind == EventKind::kCounter) {
        ev << ",\"args\":{\""
           << json::escape(e.detail.empty() ? "value" : e.detail)
           << "\":" << e.value << '}';
      } else if (!e.detail.empty() || e.value >= 0) {
        ev << ",\"args\":{";
        bool sep = false;
        if (!e.detail.empty()) {
          ev << "\"axis\":\"" << json::escape(e.detail) << '"';
          sep = true;
        }
        if (e.value >= 0) {
          if (sep) ev << ',';
          ev << (e.cat == Category::kComm ? "\"bytes\":" : "\"value\":")
             << e.value;
        }
        ev << '}';
      }
      ev << '}';
      emit(ev.str());
    }
  }
  os << "\n]}\n";
  return os.str();
}

bool write_chrome_json(const TraceSnapshot& snap, const std::string& path,
                       std::string* err) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }
  f << to_chrome_json(snap);
  f.flush();
  if (!f) {
    if (err != nullptr) *err = "write failed on " + path;
    return false;
  }
  return true;
}

TraceSnapshot parse_chrome_json(const std::string& text) {
  const json::Value root = json::parse(text);
  const json::Value* events = root.is_array() ? &root : root.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error(
        "trace JSON: expected a traceEvents array or a bare event array");
  }
  // Absent or mistyped optional fields read as "" / 0.
  const auto str = [](const json::Value* v) {
    return v != nullptr && v->is_string() ? v->as_string() : std::string();
  };
  const auto num = [](const json::Value* v) {
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };

  struct TrackAccum {
    TraceTrack track;
    bool seen_sort = false;
  };
  std::map<int, TrackAccum> tracks;  // keyed by tid

  for (const json::Value& ev : events->as_array()) {
    if (!ev.is_object()) {
      throw std::runtime_error("trace JSON: event is not an object");
    }
    const std::string ph = str(ev.get("ph"));
    const int tid = checked_int<int>(num(ev.get("tid")), "tid");
    TrackAccum& acc = tracks[tid];
    acc.track.tid = tid;
    const json::Value* args = ev.get("args");

    if (ph == "M") {
      const std::string name = str(ev.get("name"));
      if (name == "thread_name" && args != nullptr) {
        if (const json::Value* label = args->get("name");
            label != nullptr && label->is_string()) {
          acc.track.label = label->as_string();
        }
      } else if (name == "thread_sort_index" && args != nullptr) {
        acc.track.sort_key =
            checked_int<int>(num(args->get("sort_index")), "sort_index");
        acc.seen_sort = true;
      } else if (name == "orbit_track_stats" && args != nullptr) {
        acc.track.dropped = checked_int<std::uint64_t>(
            num(args->get("dropped")), "dropped");
      }
      continue;
    }
    const auto kind = kind_of(ph);
    if (!kind) continue;  // tolerate phases we don't emit ("X", "N", ...)

    TraceEvent e;
    e.kind = *kind;
    e.name = str(ev.get("name"));
    e.cat = category_of(str(ev.get("cat")));
    const json::Value* ts = ev.get("ts");
    if (ts == nullptr || !ts->is_number()) {
      throw std::runtime_error("trace JSON: event '" + e.name +
                               "' missing numeric ts");
    }
    e.ts_ns =
        checked_int<std::uint64_t>(std::round(ts->as_number() * 1e3), "ts");
    e.flow = checked_int<std::uint64_t>(num(ev.get("id")), "id");
    if (args != nullptr && args->is_object()) {
      if (e.kind == EventKind::kCounter) {
        // Counter series: the first numeric arg; its key is the detail tag.
        for (const auto& [k, v] : args->as_object()) {
          if (v.is_number()) {
            e.detail = k == "value" ? "" : k;
            e.value = checked_int<std::int64_t>(v.as_number(), k.c_str());
            break;
          }
        }
      } else {
        e.detail = str(args->get("axis"));
        const char* key = args->get("bytes") != nullptr ? "bytes" : "value";
        const json::Value* val = args->get(key);
        if (val != nullptr && val->is_number()) {
          e.value = checked_int<std::int64_t>(val->as_number(), key);
        }
      }
    }
    acc.track.events.push_back(std::move(e));
  }

  TraceSnapshot out;
  for (auto& [tid, acc] : tracks) {
    if (acc.track.events.empty() && acc.track.label.empty()) continue;
    if (acc.track.label.empty()) {
      acc.track.label = "thread #" + std::to_string(tid);
    }
    // After every explicit sort index, saturating for a tid near INT_MAX.
    constexpr int kLast = std::numeric_limits<int>::max();
    if (!acc.seen_sort) {
      acc.track.sort_key = tid > kLast - 100000 ? kLast : 100000 + tid;
    }
    std::stable_sort(acc.track.events.begin(), acc.track.events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    out.tracks.push_back(std::move(acc.track));
  }
  std::sort(out.tracks.begin(), out.tracks.end(),
            [](const TraceTrack& a, const TraceTrack& b) {
              return a.sort_key != b.sort_key ? a.sort_key < b.sort_key
                                              : a.tid < b.tid;
            });
  return out;
}

TraceSnapshot load_chrome_json(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open trace file " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_chrome_json(buf.str());
}

// --- aggregation ------------------------------------------------------------

namespace {

struct OpenSpan {
  const TraceEvent* begin;
  std::size_t depth;
};

void add_axis(std::vector<AxisStat>& axes, const std::string& axis,
              double time_ms, std::int64_t bytes) {
  for (AxisStat& a : axes) {
    if (a.axis == axis) {
      a.time_ms += time_ms;
      if (bytes > 0) a.bytes += static_cast<std::uint64_t>(bytes);
      ++a.ops;
      return;
    }
  }
  AxisStat a;
  a.axis = axis;
  a.time_ms = time_ms;
  a.bytes = bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0;
  a.ops = 1;
  axes.push_back(std::move(a));
}

void add_phase(std::vector<PhaseStat>& phases, const std::string& name,
               double time_ms) {
  for (PhaseStat& p : phases) {
    if (p.name == name) {
      p.time_ms += time_ms;
      ++p.count;
      return;
    }
  }
  phases.push_back(PhaseStat{name, time_ms, 1});
}

bool is_step_span(const std::string& name) {
  return name.size() > 5 && name.compare(name.size() - 5, 5, ".step") == 0;
}

/// "comm.<op>.issue" / "comm.<op>.wait" -> "<op>"; empty when `name` is not
/// an async collective span with the given suffix.
std::string async_op_key(const std::string& name, const char* suffix) {
  const std::size_t sn = std::strlen(suffix);
  if (name.size() <= 5 + sn || name.compare(0, 5, "comm.") != 0 ||
      name.compare(name.size() - sn, sn, suffix) != 0) {
    return {};
  }
  return name.substr(5, name.size() - 5 - sn);
}

TrackBreakdown breakdown_track(const TraceTrack& t) {
  TrackBreakdown b;
  b.label = t.label;
  b.dropped = t.dropped;
  std::vector<OpenSpan> stack;
  // End timestamps of async issue spans not yet matched to their wait span,
  // FIFO per op kind (engines drain handles in issue order). The gap from
  // issue end to wait begin is the op's in-flight window: comm that could
  // progress concurrently with the compute recorded in between.
  std::map<std::string, std::deque<std::uint64_t>> open_flights;
  for (const TraceEvent& e : t.events) {
    if (e.kind == EventKind::kBegin) {
      stack.push_back(OpenSpan{&e, stack.size()});
    } else if (e.kind == EventKind::kEnd) {
      if (stack.empty()) continue;  // begin lost to ring wraparound
      const OpenSpan open = stack.back();
      stack.pop_back();
      const double ms =
          static_cast<double>(e.ts_ns - open.begin->ts_ns) / 1e6;
      if (open.depth == 0) {
        b.busy_ms += ms;
        add_phase(b.phases, open.begin->name, ms);
      }
      if (open.begin->cat == Category::kComm) {
        b.comm_ms += ms;
        add_axis(b.axes, open.begin->detail.empty() ? "?" : open.begin->detail,
                 ms, open.begin->value);
        if (open.begin->value > 0) {
          b.comm_bytes += static_cast<std::uint64_t>(open.begin->value);
        }
        const std::string issued = async_op_key(open.begin->name, ".issue");
        if (!issued.empty()) {
          open_flights[issued].push_back(e.ts_ns);
        }
        const std::string waited = async_op_key(open.begin->name, ".wait");
        if (!waited.empty()) {
          auto it = open_flights.find(waited);
          if (it != open_flights.end() && !it->second.empty()) {
            const std::uint64_t issue_end = it->second.front();
            it->second.pop_front();
            if (open.begin->ts_ns > issue_end) {
              const double flight_ms =
                  static_cast<double>(open.begin->ts_ns - issue_end) / 1e6;
              // The in-flight window hides at most the op's own comm time.
              b.comm_hidden_ms += std::min(flight_ms, ms);
            }
          }
        }
      }
      if (is_step_span(open.begin->name)) b.step_ms.push_back(ms);
    }
  }
  b.compute_ms = std::max(0.0, b.busy_ms - b.comm_ms);
  b.comm_fraction = b.busy_ms > 0.0 ? b.comm_ms / b.busy_ms : 0.0;
  b.exposed_comm_fraction =
      b.busy_ms > 0.0
          ? std::max(0.0, b.comm_ms - b.comm_hidden_ms) / b.busy_ms
          : 0.0;
  return b;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

BreakdownReport summarize(const TraceSnapshot& snap) {
  BreakdownReport r;
  for (const TraceTrack& t : snap.tracks) {
    if (t.events.empty()) continue;
    r.tracks.push_back(breakdown_track(t));
  }

  bool any_rank = false;
  for (const TrackBreakdown& t : r.tracks) any_rank |= is_rank_track(t.label);

  double frac_sum = 0.0;
  double exposed_sum = 0.0;
  int frac_n = 0;
  std::vector<double> rank_mean_step;
  for (const TrackBreakdown& t : r.tracks) {
    if (any_rank && !is_rank_track(t.label)) continue;
    if (t.busy_ms > 0.0) {
      frac_sum += t.comm_fraction;
      exposed_sum += t.exposed_comm_fraction;
      ++frac_n;
    }
    for (const AxisStat& a : t.axes) {
      bool merged = false;
      for (AxisStat& tot : r.axes_total) {
        if (tot.axis == a.axis) {
          tot.time_ms += a.time_ms;
          tot.bytes += a.bytes;
          tot.ops += a.ops;
          merged = true;
          break;
        }
      }
      if (!merged) r.axes_total.push_back(a);
    }
    if (!t.step_ms.empty()) {
      double s = 0.0;
      for (double v : t.step_ms) s += v;
      rank_mean_step.push_back(s / static_cast<double>(t.step_ms.size()));
    }
  }
  r.mean_comm_fraction = frac_n > 0 ? frac_sum / frac_n : 0.0;
  r.mean_exposed_comm_fraction = frac_n > 0 ? exposed_sum / frac_n : 0.0;
  if (!rank_mean_step.empty()) {
    r.step_min_ms =
        *std::min_element(rank_mean_step.begin(), rank_mean_step.end());
    r.step_max_ms =
        *std::max_element(rank_mean_step.begin(), rank_mean_step.end());
    r.step_median_ms = median(rank_mean_step);
  }
  std::sort(r.axes_total.begin(), r.axes_total.end(),
            [](const AxisStat& a, const AxisStat& b) {
              return a.time_ms > b.time_ms;
            });
  return r;
}

std::string BreakdownReport::text() const {
  std::ostringstream os;
  char buf[256];
  os << "orbit::trace breakdown — " << tracks.size() << " track(s)\n\n";
  os << "per-track compute/comm split:\n";
  std::snprintf(buf, sizeof(buf), "  %-18s %10s %10s %10s %7s %6s %8s\n",
                "track", "busy ms", "comm ms", "compute", "comm%", "steps",
                "dropped");
  os << buf;
  for (const TrackBreakdown& t : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "  %-18s %10.3f %10.3f %10.3f %6.1f%% %6zu %8llu\n",
                  t.label.c_str(), t.busy_ms, t.comm_ms, t.compute_ms,
                  t.comm_fraction * 100.0, t.step_ms.size(),
                  static_cast<unsigned long long>(t.dropped));
    os << buf;
  }
  os << "\ncollective time by process-group axis (rank tracks):\n";
  if (axes_total.empty()) {
    os << "  (no collective spans in this trace)\n";
  }
  for (const AxisStat& a : axes_total) {
    std::snprintf(buf, sizeof(buf),
                  "  %-8s %10.3f ms %12.1f KB %8llu ops\n", a.axis.c_str(),
                  a.time_ms, static_cast<double>(a.bytes) / 1e3,
                  static_cast<unsigned long long>(a.ops));
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\nmean comm fraction: %.1f%% (exposed: %.1f%% — comm not "
                "hidden by async in-flight windows)\n"
                "straggler spread (per-rank mean step time): "
                "min %.3f / median %.3f / max %.3f ms%s\n",
                mean_comm_fraction * 100.0,
                mean_exposed_comm_fraction * 100.0, step_min_ms,
                step_median_ms, step_max_ms,
                step_min_ms > 0.0
                    ? ("  (spread " +
                       [](double x) {
                         char b[32];
                         std::snprintf(b, sizeof(b), "%.2fx", x);
                         return std::string(b);
                       }(step_max_ms / step_min_ms) + ")")
                          .c_str()
                    : "");
  os << buf;
  return os.str();
}

std::string BreakdownReport::json() const {
  std::ostringstream os;
  char buf[256];
  os << "{\"tracks\":[";
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const TrackBreakdown& t = tracks[i];
    if (i > 0) os << ',';
    os << "{\"label\":\"" << json::escape(t.label) << '"';
    std::snprintf(buf, sizeof(buf),
                  ",\"busy_ms\":%.6f,\"comm_ms\":%.6f,\"compute_ms\":%.6f,"
                  "\"comm_fraction\":%.6f,\"comm_hidden_ms\":%.6f,"
                  "\"exposed_comm_fraction\":%.6f,\"steps\":%zu,"
                  "\"dropped\":%llu",
                  t.busy_ms, t.comm_ms, t.compute_ms, t.comm_fraction,
                  t.comm_hidden_ms, t.exposed_comm_fraction, t.step_ms.size(),
                  static_cast<unsigned long long>(t.dropped));
    os << buf << '}';
  }
  os << "],\"axes\":[";
  for (std::size_t i = 0; i < axes_total.size(); ++i) {
    const AxisStat& a = axes_total[i];
    if (i > 0) os << ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"axis\":\"%s\",\"time_ms\":%.6f,\"bytes\":%llu,"
                  "\"ops\":%llu}",
                  json::escape(a.axis).c_str(), a.time_ms,
                  static_cast<unsigned long long>(a.bytes),
                  static_cast<unsigned long long>(a.ops));
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"mean_comm_fraction\":%.6f,"
                "\"mean_exposed_comm_fraction\":%.6f,"
                "\"step_ms\":{\"min\":%.6f,"
                "\"median\":%.6f,\"max\":%.6f}}",
                mean_comm_fraction, mean_exposed_comm_fraction, step_min_ms,
                step_median_ms, step_max_ms);
  os << buf;
  return os.str();
}

std::optional<std::string> validate(const TraceSnapshot& snap) {
  if (snap.empty()) return "trace contains no events";
  for (const TraceTrack& t : snap.tracks) {
    std::uint64_t prev_ts = 0;
    std::vector<const TraceEvent*> stack;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      const TraceEvent& e = t.events[i];
      if (e.ts_ns < prev_ts) {
        return "track '" + t.label + "': timestamp regression at event " +
               std::to_string(i) + " ('" + e.name + "')";
      }
      prev_ts = e.ts_ns;
      if (e.kind == EventKind::kBegin) {
        stack.push_back(&e);
      } else if (e.kind == EventKind::kEnd) {
        if (stack.empty()) {
          return "track '" + t.label + "': end without begin at event " +
                 std::to_string(i) + " ('" + e.name + "')";
        }
        if (!e.name.empty() && stack.back()->name != e.name) {
          return "track '" + t.label + "': mismatched span nesting — '" +
                 stack.back()->name + "' closed by '" + e.name + "'";
        }
        stack.pop_back();
      }
    }
    if (!stack.empty()) {
      return "track '" + t.label + "': " + std::to_string(stack.size()) +
             " span(s) never closed (first: '" + stack.back()->name + "')";
    }
  }
  return std::nullopt;
}

}  // namespace orbit::trace
