#include "telemetry/flight_recorder.hpp"

#include <csignal>
#include <exception>
#include <fstream>
#include <mutex>

#include "env/env.hpp"
#include "json/json.hpp"
#include "telemetry/exporters.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

namespace orbit::telemetry {

namespace {

constexpr std::size_t kTraceTailPerTrack = 128;

/// Every ORBIT_* knob the project reads, kept in sync with README's knob
/// table (the env module is the single getenv gateway, so this list is the
/// full surface). The bundle records set knobs verbatim and marks the rest
/// unset, so a postmortem always answers "what configuration was this?".
const char* const kKnobs[] = {
    "ORBIT_CHAOS_BEGIN",   "ORBIT_CHAOS_EVERY",     "ORBIT_CHAOS_MAX_KILLS",
    "ORBIT_CHAOS_PROB",    "ORBIT_CHAOS_RANK",      "ORBIT_CHAOS_SEED",
    "ORBIT_CHAOS_WORLD",   "ORBIT_COMM_CHECK",      "ORBIT_COMM_TIMEOUT_MS",
    "ORBIT_ELASTIC_SHAPES", "ORBIT_FAULT_RANK",     "ORBIT_FAULT_STEP",
    "ORBIT_KERNELS",       "ORBIT_METRICS_OUT",     "ORBIT_METRICS_INTERVAL_MS",
    "ORBIT_TRACE",         "ORBIT_TRACE_BUFFER",
};

struct RecorderState {
  std::mutex mu;
  std::string prefix;      // empty = disarmed
  std::string root_cause;  // sticky until consumed by a dump
};

RecorderState& state() {
  static RecorderState* s = new RecorderState();  // survives exit paths
  return *s;
}

const char* kind_tag(trace::EventKind k) {
  switch (k) {
    case trace::EventKind::kBegin: return "B";
    case trace::EventKind::kEnd: return "E";
    case trace::EventKind::kCounter: return "C";
    case trace::EventKind::kInstant: return "i";
    case trace::EventKind::kFlowBegin: return "s";
    case trace::EventKind::kFlowEnd: return "f";
  }
  return "?";
}

std::string render_bundle(const std::string& reason, const std::string& error,
                          const std::string& root_cause) {
  const RegistrySnapshot snap = scrape(/*rotate_windows=*/false);
  std::string out = "{\n";
  out += "  \"schema\": \"orbit.postmortem.v1\",\n";
  out += "  \"ts_ns\": " + std::to_string(snap.ts_ns) + ",\n";
  out += "  \"reason\": \"" + json::escape(reason) + "\",\n";
  out += "  \"error\": \"" + json::escape(error) + "\",\n";
  if (!root_cause.empty()) {
    out += "  \"root_cause\": \"" + json::escape(root_cause) + "\",\n";
  }

  out += "  \"env\": {";
  bool first = true;
  for (const char* knob : kKnobs) {
    if (!first) out += ",";
    first = false;
    const std::optional<std::string> v = env::raw(knob);
    out += "\n    \"" + std::string(knob) + "\": ";
    out += v.has_value() ? "\"" + json::escape(*v) + "\"" : "null";
  }
  out += "\n  },\n";

  out += "  \"metrics\": {";
  first = true;
  for (const auto& [id, v] : flat_series(snap, /*window_quantiles=*/false)) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"" + json::escape(id) + "\": " + json::number(v);
  }
  out += "\n  },\n";

  // Trace tail: the last kTraceTailPerTrack events of every track — the
  // "what was each thread doing just before death" view.
  const trace::TraceSnapshot tsnap = trace::snapshot();
  out += "  \"trace_tail\": [";
  first = true;
  for (const trace::TraceTrack& track : tsnap.tracks) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"track\": \"" + json::escape(track.label) +
           "\", \"dropped\": " + std::to_string(track.dropped) +
           ", \"events\": [";
    const std::size_t n = track.events.size();
    const std::size_t start =
        n > kTraceTailPerTrack ? n - kTraceTailPerTrack : 0;
    for (std::size_t i = start; i < n; ++i) {
      const trace::TraceEvent& e = track.events[i];
      if (i != start) out += ",";
      out += "\n      {\"ts_ns\": " + std::to_string(e.ts_ns) +
             ", \"kind\": \"" + kind_tag(e.kind) + "\", \"cat\": \"" +
             json::escape(trace::category_name(e.cat)) + "\", \"name\": \"" +
             json::escape(e.name) + "\"";
      if (!e.detail.empty()) {
        out += ", \"detail\": \"" + json::escape(e.detail) + "\"";
      }
      if (e.value >= 0) out += ", \"value\": " + std::to_string(e.value);
      out += "}";
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

/// Shared by the terminate and signal hooks. Not async-signal-safe (it
/// allocates and locks); acceptable because the alternative is no bundle
/// at all, and a re-entrant crash just loses the bundle, never corrupts
/// unrelated state.
void crash_dump(const char* reason, const char* what) {
  dump_postmortem(reason, what == nullptr ? "" : what);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_hook() {
  const char* what = nullptr;
  std::string text;
  if (std::exception_ptr p = std::current_exception()) {
    try {
      std::rethrow_exception(p);
    } catch (const std::exception& e) {
      text = e.what();
      what = text.c_str();
    } catch (...) {
      what = "non-standard exception";
    }
  }
  crash_dump("std_terminate", what);
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

void signal_hook(int sig) {
  const char* name = "signal";
  switch (sig) {
    case SIGABRT: name = "SIGABRT"; break;
    case SIGSEGV: name = "SIGSEGV"; break;
    case SIGBUS: name = "SIGBUS"; break;
    case SIGILL: name = "SIGILL"; break;
    case SIGFPE: name = "SIGFPE"; break;
    default: break;
  }
  crash_dump("signal", name);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void arm_flight_recorder(const std::string& prefix) {
  RecorderState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.prefix = prefix;
}

std::optional<std::string> armed_prefix() {
  RecorderState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.prefix.empty()) return std::nullopt;
  return s.prefix;
}

void note_root_cause(const std::string& note) {
  RecorderState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.root_cause = note;
}

std::optional<std::string> dump_postmortem(const std::string& reason,
                                           const std::string& error,
                                           const std::string& suffix) {
  std::string prefix;
  std::string root_cause;
  {
    RecorderState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.prefix.empty()) return std::nullopt;
    prefix = s.prefix;
    root_cause = s.root_cause;  // sticky: the next failure overwrites it
  }
  const std::string path = prefix + suffix + ".postmortem.json";
  const std::string body = render_bundle(reason, error, root_cause);
  std::ofstream f(path, std::ios::trunc);
  if (!f) return std::nullopt;
  f << body;
  f.flush();
  if (!f) return std::nullopt;
  return path;
}

void install_crash_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_prev_terminate = std::set_terminate(terminate_hook);
    for (int sig : {SIGABRT, SIGSEGV, SIGBUS, SIGILL, SIGFPE}) {
      std::signal(sig, signal_hook);
    }
  });
}

std::optional<std::string> validate_bundle(const std::string& path) {
  std::ifstream f(path);
  if (!f) return "cannot open " + path;
  std::string body((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  json::Value doc;
  try {
    doc = json::parse(body);
  } catch (const std::exception& e) {
    return std::string("malformed JSON: ") + e.what();
  }
  if (!doc.is_object()) return "bundle is not a JSON object";
  const json::Value* schema = doc.get("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "orbit.postmortem.v1") {
    return "missing or wrong \"schema\" tag (want orbit.postmortem.v1)";
  }
  const json::Value* ts = doc.get("ts_ns");
  if (ts == nullptr || !ts->is_number()) return "missing numeric \"ts_ns\"";
  const json::Value* reason = doc.get("reason");
  if (reason == nullptr || !reason->is_string() ||
      reason->as_string().empty()) {
    return "missing non-empty \"reason\"";
  }
  if (const json::Value* e = doc.get("error");
      e == nullptr || !e->is_string()) {
    return "missing \"error\" string";
  }
  const json::Value* envv = doc.get("env");
  if (envv == nullptr || !envv->is_object()) return "missing \"env\" object";
  for (const char* knob : kKnobs) {
    const json::Value* k = envv->get(knob);
    if (k == nullptr) return std::string("env section misses ") + knob;
    if (!k->is_null() && !k->is_string()) {
      return std::string("env value for ") + knob + " must be string or null";
    }
  }
  const json::Value* metrics = doc.get("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return "missing \"metrics\" object";
  }
  // A non-finite metric (a diverged loss gauge) is written as null.
  for (const auto& [k, v] : metrics->as_object()) {
    if (!v.is_number() && !v.is_null()) {
      return "metric value for " + k + " must be a number or null";
    }
  }
  const json::Value* tail = doc.get("trace_tail");
  if (tail == nullptr || !tail->is_array()) {
    return "missing \"trace_tail\" array";
  }
  for (const json::Value& track : tail->as_array()) {
    if (!track.is_object()) return "trace_tail entry is not an object";
    const json::Value* label = track.get("track");
    if (label == nullptr || !label->is_string()) {
      return "trace_tail entry misses \"track\" label";
    }
    const json::Value* events = track.get("events");
    if (events == nullptr || !events->is_array()) {
      return "trace_tail entry misses \"events\" array";
    }
    for (const json::Value& ev : events->as_array()) {
      if (ev.get("ts_ns") == nullptr || ev.get("kind") == nullptr ||
          ev.get("name") == nullptr) {
        return "trace event misses ts_ns/kind/name";
      }
    }
  }
  return std::nullopt;
}

}  // namespace orbit::telemetry
