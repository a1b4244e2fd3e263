#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "resilience/supervisor.hpp"
#include "telemetry/flight_recorder.hpp"
#include "json/json.hpp"

/// The flight recorder under real failure traffic: a chaos kill inside a
/// supervised run_spmd world must leave a postmortem bundle that passes
/// structural validation AND names the killed rank in its root cause — the
/// whole point of the recorder is that the on-call reader learns *which*
/// rank died without re-running anything.

namespace orbit::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream body;
  body << f.rdbuf();
  return body.str();
}

void cleanup(const std::string& prefix) {
  namespace fs = std::filesystem;
  const fs::path p(prefix);
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(p.parent_path(), ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(p.filename().string(), 0) == 0) fs::remove(e.path(), ec);
  }
}

class PostmortemChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    comm::fault::clear_plan();
    comm::fault::clear_chaos();
  }
  void TearDown() override {
    comm::fault::clear_plan();
    comm::fault::clear_chaos();
    arm_flight_recorder("");
    note_root_cause("");
  }
};

TEST_F(PostmortemChaosTest, KillLeavesABundleNamingTheKilledRank) {
  const std::string prefix = ::testing::TempDir() + "/pm_chaos";
  cleanup(prefix);

  comm::fault::FaultPlan plan;
  plan.rank = 2;
  plan.at_step = 1;
  comm::fault::set_plan(plan);

  resilience::SupervisorConfig scfg;
  scfg.world_size = 4;
  scfg.postmortem_prefix = prefix;
  scfg.retry.max_attempts = 1;  // the kill is terminal: retries exhausted
  scfg.sleep_fn = [](std::chrono::milliseconds) {};
  resilience::Supervisor sup(scfg);

  const resilience::RecoveryReport report =
      sup.run([&](comm::RankContext& ctx) {
        for (std::int64_t step = 0; step < 3; ++step) {
          comm::fault::on_train_step(ctx.rank(), step);
        }
      });

  ASSERT_FALSE(report.succeeded());
  ASSERT_EQ(report.total_attempts(), 1);
  EXPECT_EQ(report.attempts[0].failure, resilience::FailureKind::kRankKilled);

  // Per-attempt bundle and the terminal bundle both exist and validate.
  const std::string attempt_bundle = report.attempts[0].postmortem;
  ASSERT_EQ(attempt_bundle, prefix + ".attempt1.postmortem.json");
  ASSERT_TRUE(std::filesystem::exists(attempt_bundle));
  EXPECT_FALSE(validate_bundle(attempt_bundle).has_value())
      << validate_bundle(attempt_bundle).value_or("");

  ASSERT_EQ(report.postmortem, prefix + ".postmortem.json");
  ASSERT_TRUE(std::filesystem::exists(report.postmortem));
  EXPECT_FALSE(validate_bundle(report.postmortem).has_value())
      << validate_bundle(report.postmortem).value_or("");

  // Both bundles name the killed rank in their root cause.
  for (const std::string& path : {attempt_bundle, report.postmortem}) {
    const json::Value b = json::parse(slurp(path));
    ASSERT_NE(b.get("root_cause"), nullptr) << path;
    const std::string cause = b.get("root_cause")->as_string();
    EXPECT_NE(cause.find("rank 2"), std::string::npos)
        << path << ": " << cause;
    EXPECT_EQ(b.get("reason")->as_string(),
              path == report.postmortem ? "supervisor_terminal"
                                        : "attempt_failed")
        << path;
  }
  cleanup(prefix);
}

TEST_F(PostmortemChaosTest, RecoveredRunLeavesAttemptBundlesButNoTerminal) {
  const std::string prefix = ::testing::TempDir() + "/pm_recover";
  cleanup(prefix);

  comm::fault::FaultPlan plan;
  plan.rank = 1;
  plan.at_step = 0;
  comm::fault::set_plan(plan);  // one-shot: the relaunch survives

  resilience::SupervisorConfig scfg;
  scfg.world_size = 4;
  scfg.postmortem_prefix = prefix;
  scfg.retry.max_attempts = 3;
  scfg.sleep_fn = [](std::chrono::milliseconds) {};
  resilience::Supervisor sup(scfg);

  const resilience::RecoveryReport report =
      sup.run([&](comm::RankContext& ctx) {
        for (std::int64_t step = 0; step < 2; ++step) {
          comm::fault::on_train_step(ctx.rank(), step);
        }
      });

  ASSERT_TRUE(report.succeeded()) << report.summary();
  ASSERT_EQ(report.total_attempts(), 2);
  EXPECT_TRUE(std::filesystem::exists(prefix + ".attempt1.postmortem.json"));
  // Success means no terminal bundle — its absence is the signal.
  EXPECT_TRUE(report.postmortem.empty());
  EXPECT_FALSE(std::filesystem::exists(prefix + ".postmortem.json"));
  cleanup(prefix);
}

}  // namespace
}  // namespace orbit::telemetry
