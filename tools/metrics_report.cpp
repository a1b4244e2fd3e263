/// \file metrics_report.cpp
/// CLI front-end for `orbit::telemetry` artifacts (DESIGN.md §4h).
///
///   metrics_report --input metrics.prom             summarize an exposition file
///   metrics_report --tail metrics.jsonl             summarize a JSONL series
///   metrics_report --convert metrics.jsonl --out m.prom
///       re-render the LAST JSONL record as Prometheus exposition lines
///   metrics_report --serve metrics.prom --port 9109
///       bridge a file to HTTP: every GET re-reads the file, so a scraper
///       pointed at the port sees whatever exporter is rewriting it
///   metrics_report --check-postmortem run.postmortem.json
///       structural validation of a flight-recorder bundle, exit 0 iff valid

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "argparse.hpp"
#include "json/json.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"

namespace {

using orbit::telemetry::PromSample;

bool slurp(const std::string& path, std::string* out, std::string* err) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream body;
  body << f.rdbuf();
  *out = body.str();
  return true;
}

std::string series_id(const PromSample& s) {
  if (s.labels.empty()) return s.name;
  std::string id = s.name + "{";
  for (std::size_t i = 0; i < s.labels.size(); ++i) {
    if (i) id += ",";
    id += s.labels[i].first + "=\"" + s.labels[i].second + "\"";
  }
  return id + "}";
}

int summarize_exposition(const std::string& path) {
  std::string body, err;
  if (!slurp(path, &body, &err)) {
    std::fprintf(stderr, "metrics_report: %s\n", err.c_str());
    return 1;
  }
  const std::vector<PromSample> samples =
      orbit::telemetry::parse_prometheus(body);
  std::printf("metrics_report: %s (%zu sample(s))\n", path.c_str(),
              samples.size());
  for (const PromSample& s : samples) {
    std::printf("  %-56s %.10g\n", series_id(s).c_str(), s.value);
  }
  return 0;
}

int summarize_jsonl(const std::string& path) {
  std::string body, err;
  if (!slurp(path, &body, &err)) {
    std::fprintf(stderr, "metrics_report: %s\n", err.c_str());
    return 1;
  }
  const auto records = orbit::json::parse_lines(body);
  if (records.empty()) {
    std::fprintf(stderr, "metrics_report: %s has no records\n", path.c_str());
    return 1;
  }
  const auto& last = records.back();
  const auto* metrics = last.get("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    std::fprintf(stderr, "metrics_report: %s: last record has no metrics\n",
                 path.c_str());
    return 1;
  }
  const auto* ts = last.get("ts_ns");
  std::printf("metrics_report: %s (%zu record(s), last ts_ns=%.0f)\n",
              path.c_str(), records.size(),
              ts != nullptr && ts->is_number() ? ts->as_number() : -1.0);
  for (const auto& [key, value] : metrics->as_object()) {
    if (value.is_null()) {  // a non-finite value, written as JSON null
      std::printf("  %-56s NaN\n", key.c_str());
      continue;
    }
    std::printf("  %-56s %.10g\n", key.c_str(),
                value.is_number() ? value.as_number() : 0.0);
  }
  return 0;
}

/// Last JSONL record -> bare exposition lines. Series ids are exactly the
/// exposition ids, so this is a straight `<id> <value>` re-render (no
/// HELP/TYPE: instrument kinds are not recoverable from a flat record).
int convert_jsonl(const std::string& in_path, const std::string& out_path) {
  std::string body, err;
  if (!slurp(in_path, &body, &err)) {
    std::fprintf(stderr, "metrics_report: %s\n", err.c_str());
    return 1;
  }
  const auto records = orbit::json::parse_lines(body);
  if (records.empty()) {
    std::fprintf(stderr, "metrics_report: %s has no records\n",
                 in_path.c_str());
    return 1;
  }
  const auto* metrics = records.back().get("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    std::fprintf(stderr, "metrics_report: %s: last record has no metrics\n",
                 in_path.c_str());
    return 1;
  }
  std::ostringstream out;
  for (const auto& [key, value] : metrics->as_object()) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g",
                  value.is_number() ? value.as_number() : 0.0);
    out << key << ' ' << (value.is_null() ? "NaN" : num) << '\n';
  }
  if (out_path.empty() || out_path == "-") {
    std::fputs(out.str().c_str(), stdout);
    return 0;
  }
  std::ofstream f(out_path, std::ios::binary | std::ios::trunc);
  f << out.str();
  if (!f) {
    std::fprintf(stderr, "metrics_report: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "metrics_report: wrote %s\n", out_path.c_str());
  return 0;
}

/// Tiny blocking HTTP/1.0 bridge: each accepted connection gets the current
/// file contents as text/plain (version 0.0.4, the exposition content type)
/// regardless of the request line. `max_requests` bounds the loop for tests;
/// 0 means serve until killed.
int serve_file(const std::string& path, int port, int max_requests) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("metrics_report: socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    std::perror("metrics_report: bind/listen");
    ::close(fd);
    return 1;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen);
  std::printf("metrics_report: serving %s on 127.0.0.1:%d\n", path.c_str(),
              static_cast<int>(ntohs(addr.sin_port)));
  std::fflush(stdout);

  int served = 0;
  while (max_requests == 0 || served < max_requests) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) continue;
    char req[1024];
    (void)::read(conn, req, sizeof(req));  // drain the request line
    std::string body, err;
    std::string response;
    if (slurp(path, &body, &err)) {
      response = "HTTP/1.0 200 OK\r\nContent-Type: text/plain; "
                 "version=0.0.4\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\n\r\n" + body;
    } else {
      response = "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n";
    }
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          ::write(conn, response.data() + off, response.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(conn);
    ++served;
  }
  ::close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  orbit::tools::ArgParser args(
      argc, argv,
      {{"input", "Prometheus exposition file to summarize"},
       {"tail", "JSONL exporter file: summarize its last record"},
       {"convert", "JSONL exporter file: last record -> exposition lines"},
       {"out", "convert: output path ('-' = stdout, default)"},
       {"serve", "exposition file to bridge to HTTP for scraping"},
       {"port", "serve: TCP port, 0 = ephemeral (default 9109)"},
       {"max-requests", "serve: stop after N requests, 0 = forever"},
       {"check-postmortem", "flight-recorder bundle to validate, exit 0/1"}});

  try {
    if (args.has("check-postmortem")) {
      const std::string path = args.get_str("check-postmortem", "");
      if (const auto err = orbit::telemetry::validate_bundle(path)) {
        std::fprintf(stderr, "metrics_report: INVALID %s: %s\n", path.c_str(),
                     err->c_str());
        return 1;
      }
      std::printf("metrics_report: OK %s\n", path.c_str());
      return 0;
    }
    if (args.has("input")) return summarize_exposition(args.get_str("input", ""));
    if (args.has("tail")) return summarize_jsonl(args.get_str("tail", ""));
    if (args.has("convert")) {
      return convert_jsonl(args.get_str("convert", ""),
                           args.get_str("out", "-"));
    }
    if (args.has("serve")) {
      return serve_file(args.get_str("serve", ""), args.get_int("port", 9109),
                        args.get_int("max-requests", 0));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics_report: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr,
               "metrics_report: one of --input, --tail, --convert, --serve, "
               "or --check-postmortem is required (--help for usage)\n");
  return 2;
}
