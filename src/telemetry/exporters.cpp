#include "telemetry/exporters.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "env/env.hpp"
#include "json/json.hpp"

namespace orbit::telemetry {

namespace {

/// Prometheus exposition value: JSON's finite rendering, plus the
/// exposition format's own NaN/+Inf/-Inf spellings.
std::string render_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json::number(v);
}

std::string prom_label_block(const Labels& labels,
                             const std::string& extra_key = "",
                             const std::string& extra_val = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    std::string esc;
    for (char c : v) {
      if (c == '\\' || c == '"') esc += '\\';
      if (c == '\n') {
        esc += "\\n";
        continue;
      }
      esc += c;
    }
    out += k + "=\"" + esc + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_val + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

RegistrySnapshot scrape(bool rotate_windows) {
  refresh_runtime_info();
  return Registry::global().snapshot(rotate_windows);
}

std::string to_prometheus(const RegistrySnapshot& snap) {
  std::string out;
  std::string last_name;
  for (const MetricPoint& p : snap.points) {
    if (p.name != last_name) {
      last_name = p.name;
      if (!p.help.empty()) out += "# HELP " + p.name + " " + p.help + "\n";
      const char* type = "untyped";
      switch (p.kind) {
        case Kind::kCounter: type = "counter"; break;
        case Kind::kGauge: type = "gauge"; break;
        case Kind::kHistogram: type = "summary"; break;
      }
      out += "# TYPE " + p.name + " " + std::string(type) + "\n";
    }
    if (p.kind == Kind::kHistogram) {
      // Exposition carries the cumulative distribution, as scrapers expect.
      out += p.name + prom_label_block(p.labels, "quantile", "0.5") + " " +
             render_number(p.hist.p50) + "\n";
      out += p.name + prom_label_block(p.labels, "quantile", "0.95") + " " +
             render_number(p.hist.p95) + "\n";
      out += p.name + prom_label_block(p.labels, "quantile", "0.99") + " " +
             render_number(p.hist.p99) + "\n";
      out += p.name + "_sum" + prom_label_block(p.labels) + " " +
             render_number(p.hist.sum) + "\n";
      out += p.name + "_count" + prom_label_block(p.labels) + " " +
             render_number(static_cast<double>(p.hist.count)) + "\n";
    } else {
      out += p.name + prom_label_block(p.labels) + " " +
             render_number(p.value) + "\n";
    }
  }
  return out;
}

bool write_prometheus(const RegistrySnapshot& snap, const std::string& path,
                      std::string* err) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }
  f << to_prometheus(snap);
  f.flush();
  if (!f) {
    if (err != nullptr) *err = "short write to " + path;
    return false;
  }
  return true;
}

std::optional<std::string> PromSample::label(const std::string& key) const {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return std::nullopt;
}

namespace {

[[noreturn]] void bad_line(std::size_t lineno, const std::string& why) {
  throw std::runtime_error("prometheus parse: line " + std::to_string(lineno) +
                           ": " + why);
}

}  // namespace

std::vector<PromSample> parse_prometheus(const std::string& text) {
  std::vector<PromSample> out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] == '#') continue;
    PromSample s;
    // metric name
    std::size_t start = i;
    while (i < line.size() && (std::isalnum(static_cast<unsigned char>(
                                   line[i])) != 0 ||
                               line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    if (i == start) bad_line(lineno, "expected metric name");
    s.name = line.substr(start, i - start);
    // optional label block
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t ks = i;
        while (i < line.size() && line[i] != '=') ++i;
        if (i >= line.size()) bad_line(lineno, "unterminated label");
        std::string key = line.substr(ks, i - ks);
        ++i;  // '='
        if (i >= line.size() || line[i] != '"') {
          bad_line(lineno, "label value must be quoted");
        }
        ++i;  // opening quote
        std::string val;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;
            if (line[i] == 'n') {
              val += '\n';
            } else {
              val += line[i];
            }
          } else {
            val += line[i];
          }
          ++i;
        }
        if (i >= line.size()) bad_line(lineno, "unterminated label value");
        ++i;  // closing quote
        s.labels.emplace_back(std::move(key), std::move(val));
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) bad_line(lineno, "unterminated label block");
      ++i;  // '}'
    }
    // value
    std::size_t vs = line.find_first_not_of(" \t", i);
    if (vs == std::string::npos) bad_line(lineno, "missing value");
    const std::string vtext = line.substr(vs);
    if (vtext == "NaN") {
      s.value = std::nan("");
    } else if (vtext == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else if (vtext == "-Inf") {
      s.value = -std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      s.value = std::strtod(vtext.c_str(), &end);
      if (end == vtext.c_str()) bad_line(lineno, "bad value \"" + vtext + "\"");
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::pair<std::string, double>> flat_series(
    const RegistrySnapshot& snap, bool window_quantiles) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(snap.points.size());
  for (const MetricPoint& p : snap.points) {
    const std::string id = p.series_id();
    if (p.kind != Kind::kHistogram) {
      out.emplace_back(id, p.value);
      continue;
    }
    const HistogramRead& q = window_quantiles ? p.window : p.hist;
    // Quantile series ids mirror the exposition encoding exactly.
    auto qid = [&](const char* quant) {
      Labels l = p.labels;
      l.emplace_back("quantile", quant);
      std::sort(l.begin(), l.end());
      MetricPoint tmp;
      tmp.name = p.name;
      tmp.labels = std::move(l);
      return tmp.series_id();
    };
    out.emplace_back(qid("0.5"), q.p50);
    out.emplace_back(qid("0.95"), q.p95);
    out.emplace_back(qid("0.99"), q.p99);
    MetricPoint sum_pt;
    sum_pt.name = p.name + "_sum";
    sum_pt.labels = p.labels;
    out.emplace_back(sum_pt.series_id(), p.hist.sum);
    MetricPoint cnt_pt;
    cnt_pt.name = p.name + "_count";
    cnt_pt.labels = p.labels;
    out.emplace_back(cnt_pt.series_id(),
                     static_cast<double>(p.hist.count));
  }
  return out;
}

std::string to_jsonl_record(const RegistrySnapshot& snap) {
  std::string out = "{\"ts_ns\":" + std::to_string(snap.ts_ns) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [id, v] : flat_series(snap, /*window_quantiles=*/true)) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json::escape(id) + "\":" + json::number(v);
  }
  out += "}}\n";
  return out;
}

ExportLoop::ExportLoop(Options opts) : opts_(std::move(opts)) {
  thread_ = std::thread([this] { run(); });
}

ExportLoop::~ExportLoop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  append_record();  // final flush so short runs still leave one record
}

void ExportLoop::run() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    if (cv_.wait_for(lk, opts_.interval, [this] { return stop_; })) break;
    lk.unlock();
    append_record();
    lk.lock();
  }
}

void ExportLoop::append_record() {
  std::ofstream f(opts_.jsonl_path, std::ios::app);
  if (!f) return;  // exporter must never take the process down
  f << to_jsonl_record(scrape(/*rotate_windows=*/true));
}

std::unique_ptr<ExportLoop> ExportLoop::from_env() {
  const std::optional<std::string> path = env::raw("ORBIT_METRICS_OUT");
  if (!path.has_value() || path->empty()) return nullptr;
  Options opts;
  opts.jsonl_path = *path;
  const std::int64_t ms =
      env::i64_or("ORBIT_METRICS_INTERVAL_MS", 1000, 1, 86'400'000);
  opts.interval = std::chrono::milliseconds(ms);
  return std::make_unique<ExportLoop>(std::move(opts));
}

}  // namespace orbit::telemetry
