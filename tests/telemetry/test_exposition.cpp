#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "env/env.hpp"
#include "telemetry/exporters.hpp"
#include "json/json.hpp"
#include "telemetry/registry.hpp"

/// Exporter contracts: the Prometheus text exposition golden format, the
/// parse round-trip the serve_loadgen exit check relies on, the JSONL
/// record shape, and the shared series naming (`flat_series` ids ==
/// exposition ids) that lets a bench report and a scrape agree key-for-key.

namespace orbit::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream body;
  body << f.rdbuf();
  return body.str();
}

TEST(Exposition, GoldenCounterAndGaugeFormat) {
  Registry reg;
  reg.counter("comm_bytes_total", {{"axis", "fsdp"}}, "bytes moved").inc(512);
  reg.counter("comm_bytes_total", {{"axis", "tp"}}, "bytes moved").inc(7);
  reg.gauge("queue_depth", {}, "waiting requests").set(3.0);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_EQ(text,
            "# HELP comm_bytes_total bytes moved\n"
            "# TYPE comm_bytes_total counter\n"
            "comm_bytes_total{axis=\"fsdp\"} 512\n"
            "comm_bytes_total{axis=\"tp\"} 7\n"
            "# HELP queue_depth waiting requests\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 3\n");
}

TEST(Exposition, HistogramRendersAsSummary) {
  Registry reg;
  const Histogram h = reg.histogram("lat_us", {{"server", "0"}}, "latency");
  for (int i = 0; i < 64; ++i) h.record(100.0);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE lat_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us{server=\"0\",quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("lat_us{server=\"0\",quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("lat_us_sum{server=\"0\"} 6400\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count{server=\"0\"} 64\n"), std::string::npos);
}

TEST(Exposition, ParseRoundTripsRenderedText) {
  Registry reg;
  reg.counter("a_total", {{"k", "v1"}}).inc(41);
  reg.gauge("b_gauge").set(2.5);
  const Histogram h = reg.histogram("c_us");
  h.record(50.0);
  const std::vector<PromSample> samples =
      parse_prometheus(to_prometheus(reg.snapshot()));
  // 1 counter + 1 gauge + (3 quantiles + _sum + _count) = 7 samples.
  ASSERT_EQ(samples.size(), 7u);
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_EQ(samples[0].label("k").value_or(""), "v1");
  EXPECT_EQ(samples[0].value, 41.0);
  EXPECT_EQ(samples[1].name, "b_gauge");
  EXPECT_EQ(samples[1].value, 2.5);
  EXPECT_EQ(samples[4].label("quantile").value_or(""), "0.99");
  EXPECT_EQ(samples[5].name, "c_us_sum");
  EXPECT_EQ(samples[6].name, "c_us_count");
  EXPECT_EQ(samples[6].value, 1.0);
}

TEST(Exposition, LabelValueEscapingRoundTrips) {
  Registry reg;
  reg.counter("esc_total", {{"path", "a\"b\\c\nd"}}).inc(1);
  const std::vector<PromSample> samples =
      parse_prometheus(to_prometheus(reg.snapshot()));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].label("path").value_or(""), "a\"b\\c\nd");
}

TEST(Exposition, ParserNamesTheMalformedLine) {
  try {
    parse_prometheus("ok_total 1\nbroken{unclosed 2\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Exposition, ParserHandlesSpecialValues) {
  const auto samples = parse_prometheus("a NaN\nb +Inf\nc -Inf\n");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(std::isnan(samples[0].value));
  EXPECT_TRUE(std::isinf(samples[1].value));
  EXPECT_GT(samples[1].value, 0.0);
  EXPECT_LT(samples[2].value, 0.0);
}

TEST(FlatSeries, IdsMatchExpositionEncoding) {
  Registry reg;
  reg.counter("x_total", {{"axis", "tp"}}).inc(9);
  const Histogram h = reg.histogram("y_us", {{"server", "1"}});
  h.record(10.0);
  const auto series = flat_series(reg.snapshot(), /*window_quantiles=*/false);
  ASSERT_EQ(series.size(), 6u);
  EXPECT_EQ(series[0].first, "x_total{axis=\"tp\"}");
  EXPECT_EQ(series[0].second, 9.0);
  EXPECT_EQ(series[1].first, "y_us{quantile=\"0.5\",server=\"1\"}");
  EXPECT_EQ(series[4].first, "y_us_sum{server=\"1\"}");
  EXPECT_EQ(series[5].first, "y_us_count{server=\"1\"}");
  EXPECT_EQ(series[5].second, 1.0);
}

TEST(Jsonl, RecordParsesAndCarriesWindowQuantiles) {
  Registry reg;
  reg.counter("n_total").inc(5);
  const Histogram h = reg.histogram("w_us");
  for (int i = 0; i < 32; ++i) h.record(100.0);
  (void)reg.snapshot(/*rotate_windows=*/true);  // close the first window
  for (int i = 0; i < 32; ++i) h.record(1000.0);

  const std::string line = to_jsonl_record(reg.snapshot(true));
  const json::Value rec = json::parse(line);
  ASSERT_TRUE(rec.is_object());
  ASSERT_NE(rec.get("ts_ns"), nullptr);
  EXPECT_TRUE(rec.get("ts_ns")->is_number());
  const json::Value* metrics = rec.get("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* count = metrics->get("w_us_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->as_number(), 64.0);  // _count stays cumulative
  const json::Value* p50 = metrics->get("w_us{quantile=\"0.5\"}");
  ASSERT_NE(p50, nullptr);
  EXPECT_NEAR(p50->as_number(), 1000.0, 1000.0 * 0.08);  // window, not cum
  EXPECT_EQ(metrics->get("n_total")->as_number(), 5.0);
}

TEST(ExportLoopTest, AppendsPeriodicRecordsAndAFinalFlush) {
  const std::string path = ::testing::TempDir() + "/export_loop.jsonl";
  std::remove(path.c_str());
  Registry::global().reset_for_tests();
  const Counter c = Registry::global().counter("loop_total");
  {
    ExportLoop::Options opts;
    opts.jsonl_path = path;
    opts.interval = std::chrono::milliseconds(20);
    ExportLoop loop(std::move(opts));
    c.inc(3);
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
  }  // destructor joins and appends the final record
  const auto records = json::parse_lines(slurp(path));
  ASSERT_GE(records.size(), 2u);  // >= 1 periodic + the final flush
  const json::Value* metrics = records.back().get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->get("loop_total"), nullptr);
  EXPECT_EQ(metrics->get("loop_total")->as_number(), 3.0);
  std::remove(path.c_str());
  Registry::global().reset_for_tests();
}

class FromEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("ORBIT_METRICS_OUT");
    ::unsetenv("ORBIT_METRICS_INTERVAL_MS");
    Registry::global().reset_for_tests();
  }
};

TEST_F(FromEnvTest, UnsetKnobDisablesTheLoop) {
  ::unsetenv("ORBIT_METRICS_OUT");
  EXPECT_EQ(ExportLoop::from_env(), nullptr);
  ::setenv("ORBIT_METRICS_OUT", "", 1);
  EXPECT_EQ(ExportLoop::from_env(), nullptr);
}

TEST_F(FromEnvTest, SetKnobArmsPathAndInterval) {
  const std::string path = ::testing::TempDir() + "/from_env.jsonl";
  std::remove(path.c_str());
  ::setenv("ORBIT_METRICS_OUT", path.c_str(), 1);
  ::setenv("ORBIT_METRICS_INTERVAL_MS", "7", 1);
  {
    auto loop = ExportLoop::from_env();
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->options().jsonl_path, path);
    EXPECT_EQ(loop->options().interval, std::chrono::milliseconds(7));
  }
  EXPECT_FALSE(slurp(path).empty());  // the final flush landed
  std::remove(path.c_str());
}

TEST_F(FromEnvTest, MalformedIntervalThrowsStrictly) {
  ::setenv("ORBIT_METRICS_OUT", "/tmp/x.jsonl", 1);
  ::setenv("ORBIT_METRICS_INTERVAL_MS", "soon", 1);
  EXPECT_THROW(ExportLoop::from_env(), env::EnvError);
  ::setenv("ORBIT_METRICS_INTERVAL_MS", "0", 1);  // below the [1, 1d] range
  EXPECT_THROW(ExportLoop::from_env(), env::EnvError);
}

TEST(Scrape, PublishesKernelIsaInfoGauge) {
  Registry::global().reset_for_tests();
  const RegistrySnapshot snap = scrape();
  double one_hot_sum = 0.0;
  for (const char* level : {"scalar", "avx2", "avx512"}) {
    const MetricPoint* p =
        snap.find("kernels_active_isa", {{"level", level}});
    ASSERT_NE(p, nullptr) << level;
    one_hot_sum += p->value;
  }
  EXPECT_EQ(one_hot_sum, 1.0);  // exactly one active dispatch level
  EXPECT_NE(snap.find("kernels_active_isa_ord"), nullptr);
  Registry::global().reset_for_tests();
}

}  // namespace
}  // namespace orbit::telemetry
