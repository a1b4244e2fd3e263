#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <unistd.h>

#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "json/json.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"

/// Flight-recorder bundle contract: arm/disarm, the suffix splicing the
/// supervisor uses for per-attempt dumps, the sticky root-cause note, and
/// the `orbit.postmortem.v1` schema round-trip through validate_bundle and
/// the orbit::json reader.

namespace orbit::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream body;
  body << f.rdbuf();
  return body.str();
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case in its own process, possibly concurrently: a
    // per-case, per-process stem keeps one case's cleanup() off another's
    // bundles.
    stem_ = std::string("fr_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid());
    prefix_ = ::testing::TempDir() + "/" + stem_;
    cleanup();
    Registry::global().reset_for_tests();
    arm_flight_recorder(prefix_);
  }
  void TearDown() override {
    arm_flight_recorder("");  // disarm
    note_root_cause("");
    cleanup();
    Registry::global().reset_for_tests();
  }
  void cleanup() {
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(::testing::TempDir(), ec)) {
      const std::string name = e.path().filename().string();
      if (name.rfind(stem_, 0) == 0) fs::remove(e.path(), ec);
    }
  }
  std::string stem_;
  std::string prefix_;
};

TEST_F(FlightRecorderTest, DisarmedRecorderWritesNothing) {
  arm_flight_recorder("");
  EXPECT_FALSE(armed_prefix().has_value());
  EXPECT_FALSE(dump_postmortem("manual", "boom").has_value());
}

TEST_F(FlightRecorderTest, ArmedDumpPassesValidationAndCarriesSections) {
  ASSERT_EQ(armed_prefix().value_or(""), prefix_);
  Registry::global().counter("fr_ops_total", {{"axis", "tp"}}).inc(11);
  trace::ScopedTrace capture;
  { ORBIT_TRACE_SPAN("handle", trace::Category::kServe); }
  note_root_cause("run_spmd rank 3: simulated kill");

  const auto path = dump_postmortem("manual", "boom happened");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, prefix_ + ".postmortem.json");
  EXPECT_FALSE(validate_bundle(*path).has_value())
      << validate_bundle(*path).value_or("");

  const json::Value b = json::parse(slurp(*path));
  EXPECT_EQ(b.get("schema")->as_string(), "orbit.postmortem.v1");
  EXPECT_EQ(b.get("reason")->as_string(), "manual");
  EXPECT_EQ(b.get("error")->as_string(), "boom happened");
  EXPECT_EQ(b.get("root_cause")->as_string(),
            "run_spmd rank 3: simulated kill");
  // Metrics section uses exporter series naming.
  const json::Value* metrics = b.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->get("fr_ops_total{axis=\"tp\"}"), nullptr);
  EXPECT_EQ(metrics->get("fr_ops_total{axis=\"tp\"}")->as_number(), 11.0);
  // Env section resolves every ORBIT_* knob (null when unset).
  const json::Value* env_obj = b.get("env");
  ASSERT_NE(env_obj, nullptr);
  ASSERT_NE(env_obj->get("ORBIT_METRICS_OUT"), nullptr);
  ASSERT_NE(env_obj->get("ORBIT_KERNELS"), nullptr);
  // Trace tail captured the serve scope.
  EXPECT_NE(slurp(*path).find("\"handle\""), std::string::npos);
}

TEST_F(FlightRecorderTest, BundleRecordsElasticAndChaosBeginKnobs) {
  // A postmortem of an elastic run must name the shapes that drove it.
  ::setenv("ORBIT_ELASTIC_SHAPES", "2x2x1,1x2x1", 1);
  ::unsetenv("ORBIT_CHAOS_BEGIN");
  const auto path = dump_postmortem("manual", "x");
  ::unsetenv("ORBIT_ELASTIC_SHAPES");
  ASSERT_TRUE(path.has_value());
  EXPECT_FALSE(validate_bundle(*path).has_value())
      << validate_bundle(*path).value_or("");
  const json::Value b = json::parse(slurp(*path));
  const json::Value* env_obj = b.get("env");
  ASSERT_NE(env_obj, nullptr);
  ASSERT_NE(env_obj->get("ORBIT_ELASTIC_SHAPES"), nullptr);
  EXPECT_EQ(env_obj->get("ORBIT_ELASTIC_SHAPES")->as_string(), "2x2x1,1x2x1");
  ASSERT_NE(env_obj->get("ORBIT_CHAOS_BEGIN"), nullptr);
  EXPECT_TRUE(env_obj->get("ORBIT_CHAOS_BEGIN")->is_null());
}

TEST_F(FlightRecorderTest, NonFiniteGaugeIsNullInBundleAndJsonl) {
  // A diverged run is when a postmortem matters most: a NaN loss gauge
  // must leave the bundle valid and the JSONL record parseable.
  Registry::global().gauge("fr_loss").set(
      std::numeric_limits<double>::quiet_NaN());
  Registry::global().gauge("fr_peak").set(
      -std::numeric_limits<double>::infinity());
  const auto path = dump_postmortem("manual", "loss diverged");
  ASSERT_TRUE(path.has_value());
  EXPECT_FALSE(validate_bundle(*path).has_value())
      << validate_bundle(*path).value_or("");
  const json::Value b = json::parse(slurp(*path));
  const json::Value* metrics = b.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->get("fr_loss"), nullptr);
  EXPECT_TRUE(metrics->get("fr_loss")->is_null());
  ASSERT_NE(metrics->get("fr_peak"), nullptr);
  EXPECT_TRUE(metrics->get("fr_peak")->is_null());

  const json::Value rec = json::parse(to_jsonl_record(scrape()));
  ASSERT_NE(rec.get("metrics"), nullptr);
  ASSERT_NE(rec.get("metrics")->get("fr_loss"), nullptr);
  EXPECT_TRUE(rec.get("metrics")->get("fr_loss")->is_null());
  // The Prometheus exposition keeps that format's own spellings.
  const std::string prom = to_prometheus(scrape());
  EXPECT_NE(prom.find("fr_loss NaN\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("fr_peak -Inf\n"), std::string::npos) << prom;
}

TEST_F(FlightRecorderTest, SuffixSplicesBetweenPrefixAndExtension) {
  const auto path = dump_postmortem("attempt_failed", "kill", ".attempt3");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, prefix_ + ".attempt3.postmortem.json");
  EXPECT_FALSE(validate_bundle(*path).has_value());
}

TEST_F(FlightRecorderTest, RootCauseNoteIsStickyAcrossDumps) {
  note_root_cause("run_spmd rank 1: first failure");
  const auto attempt = dump_postmortem("attempt_failed", "e", ".attempt1");
  const auto terminal = dump_postmortem("supervisor_terminal", "e");
  ASSERT_TRUE(attempt.has_value());
  ASSERT_TRUE(terminal.has_value());
  // Both bundles of the same failure agree on the root cause.
  for (const auto& p : {*attempt, *terminal}) {
    const json::Value b = json::parse(slurp(p));
    EXPECT_EQ(b.get("root_cause")->as_string(),
              "run_spmd rank 1: first failure")
        << p;
  }
  // A new failure's note overwrites, not appends.
  note_root_cause("run_spmd rank 5: second failure");
  const auto next = dump_postmortem("supervisor_terminal", "e2");
  const json::Value b = json::parse(slurp(*next));
  EXPECT_EQ(b.get("root_cause")->as_string(),
            "run_spmd rank 5: second failure");
}

TEST_F(FlightRecorderTest, ValidateRejectsStructurallyBrokenBundles) {
  const std::string bad = prefix_ + ".bad.json";
  std::ofstream(bad) << "not json at all";
  EXPECT_TRUE(validate_bundle(bad).has_value());

  std::ofstream(bad, std::ios::trunc) << "{\"schema\":\"wrong.v9\"}";
  EXPECT_TRUE(validate_bundle(bad).has_value());

  // A real bundle with a section stripped must fail too.
  const auto path = dump_postmortem("manual", "x");
  ASSERT_TRUE(path.has_value());
  std::string body = slurp(*path);
  const std::size_t at = body.find("\"env\"");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, 5, "\"venv\"");
  std::ofstream(bad, std::ios::trunc) << body;
  EXPECT_TRUE(validate_bundle(bad).has_value());

  EXPECT_TRUE(validate_bundle(prefix_ + ".does_not_exist.json").has_value());
}

TEST_F(FlightRecorderTest, InstallCrashHandlersIsIdempotent) {
  install_crash_handlers();
  install_crash_handlers();  // second call must be a no-op, not a loop
  SUCCEED();
}

}  // namespace
}  // namespace orbit::telemetry
