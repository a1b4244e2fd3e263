#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream f("/proc/self/statm");
  long pages = 0, resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void Result::check(const std::string& name, bool ok, const std::string& why) {
  checks[name] = ok;
  if (!ok && !why.empty()) notes[name] = why;
}

void Result::absorb(const Result& other) {
  for (const auto& [k, v] : other.layer) layer.emplace(k, v);
  for (const auto& [k, v] : other.checks) {
    checks.emplace(other.workload + "." + k, v);
  }
  for (const auto& [k, v] : other.notes) {
    notes.emplace(other.workload + "." + k, v);
  }
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision number; JSON has no NaN/Inf, so those become null and
/// the runner treats the metric as missing.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += num(xs[i]);
  }
  return out + "]";
}

}  // namespace

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"workload\":" << quoted(workload) << ",\"model\":" << quoted(model)
     << ",\"setup_s\":" << list(setup_s) << ",\"op_ms\":" << list(op_ms)
     << ",\"busy_s\":" << num(busy_s) << ",\"items\":" << num(items)
     << ",\"loss\":" << num(loss) << ",\"peak_rss_mb\":" << num(peak_rss_mb)
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"checks\":{";
  bool first = true;
  for (const auto& [k, v] : checks) {
    os << (first ? "" : ",") << quoted(k) << ':' << (v ? "true" : "false");
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : notes) {
    os << (first ? "" : ",") << quoted(k) << ':' << quoted(v);
    first = false;
  }
  os << "},\"context\":{";
  first = true;
  for (const auto& [k, v] : context) {
    os << (first ? "" : ",") << quoted(k) << ':' << quoted(v);
    first = false;
  }
  os << "},\"layer\":{";
  first = true;
  for (const auto& [k, v] : layer) {
    os << (first ? "" : ",") << quoted(k) << ':' << num(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
