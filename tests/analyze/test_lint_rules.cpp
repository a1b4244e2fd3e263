#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

/// orbit_lint self-test: every rule R1–R10 has a firing fixture (the rule
/// reports exactly the planted violations), a non-firing fixture (no
/// over-fire on near-misses), and a scope check (the same bad content is
/// clean when analyzed under an allow-listed or out-of-scope path). The
/// suppression grammar, the lexer's literal/comment stripping, and the
/// CLI's exit-code contract are covered at the end.
///
/// Fixtures live in tests/analyze/fixtures/ and are never compiled; the
/// test lexes them under synthetic repo-relative paths because rule scopes
/// key off the path.

namespace orbit::lint {
namespace {

std::vector<Finding> analyze_fixture(const std::string& fixture,
                                     const std::string& as_path) {
  const std::string full = std::string(ORBIT_LINT_FIXTURE_DIR) + "/" + fixture;
  return analyze_file(lex_file(as_path, full));
}

std::vector<int> lines_of(const std::vector<Finding>& fs,
                          const std::string& rule) {
  std::vector<int> out;
  for (const Finding& f : fs) {
    if (f.rule == rule) out.push_back(f.line);
  }
  return out;
}

// --- R1: raw getenv ---------------------------------------------------------

TEST(R1Getenv, FiresOnQualifiedAndUnqualifiedCalls) {
  const auto fs = analyze_fixture("r1_bad.cpp", "src/train/knobs.cpp");
  EXPECT_EQ(lines_of(fs, "R1"), (std::vector<int>{6, 11}));
  EXPECT_EQ(fs.size(), 2u);
}

TEST(R1Getenv, DoesNotFireOnEnvGatewayUsage) {
  EXPECT_TRUE(analyze_fixture("r1_good.cpp", "src/train/knobs.cpp").empty());
}

TEST(R1Getenv, TheDesignatedModuleIsExempt) {
  EXPECT_TRUE(analyze_fixture("r1_bad.cpp", "src/env/env.cpp").empty());
}

// --- R2: collective under a held lock ---------------------------------------

TEST(R2LockedCollective, FiresInsideLockScopeIncludingNestedBlocks) {
  const auto fs = analyze_fixture("r2_bad.cpp", "src/parallel/foo.cpp");
  EXPECT_EQ(lines_of(fs, "R2"), (std::vector<int>{6, 8, 14}));
  EXPECT_EQ(fs.size(), 3u);
}

TEST(R2LockedCollective, DoesNotFireAfterScopeCloseOrOnLockParameters) {
  EXPECT_TRUE(analyze_fixture("r2_good.cpp", "src/parallel/foo.cpp").empty());
}

// --- R3: unseeded randomness ------------------------------------------------

TEST(R3Randomness, FiresOnRandRandomDeviceAndUnseededEngines) {
  const auto fs = analyze_fixture("r3_bad.cpp", "src/model/foo.cpp");
  EXPECT_EQ(lines_of(fs, "R3"), (std::vector<int>{6, 10, 15}));
  EXPECT_EQ(fs.size(), 3u);
}

TEST(R3Randomness, DoesNotFireOnSeededEnginesOrTypeLevelUses) {
  EXPECT_TRUE(analyze_fixture("r3_good.cpp", "src/model/foo.cpp").empty());
}

TEST(R3Randomness, ScopeIsSrcOnly) {
  // Benchmarks and tests may use ad-hoc randomness; the bitwise-resume
  // guarantee only binds src/.
  EXPECT_TRUE(analyze_fixture("r3_bad.cpp", "bench/bench_foo.cpp").empty());
}

// --- R4: wall clock in the steady-clock domain ------------------------------

TEST(R4Clock, FiresUnderTraceAndServe) {
  const auto in_serve = analyze_fixture("r4_bad.cpp", "src/serve/foo.cpp");
  EXPECT_EQ(lines_of(in_serve, "R4"), (std::vector<int>{6}));
  const auto in_trace = analyze_fixture("r4_bad.cpp", "src/trace/foo.cpp");
  EXPECT_EQ(lines_of(in_trace, "R4"), (std::vector<int>{6}));
}

TEST(R4Clock, DoesNotFireOnSteadyClockOrOutsideTheDomain) {
  EXPECT_TRUE(analyze_fixture("r4_good.cpp", "src/serve/foo.cpp").empty());
  EXPECT_TRUE(analyze_fixture("r4_bad.cpp", "src/model/foo.cpp").empty());
}

// --- R5: ISA containment ----------------------------------------------------

TEST(R5Intrinsics, FiresOnIncludeAndIntrinsicIdentifiers) {
  const auto fs = analyze_fixture("r5_bad.cpp", "src/tensor/foo.cpp");
  EXPECT_EQ(lines_of(fs, "R5"), (std::vector<int>{2, 5, 5, 6}));
  EXPECT_EQ(fs.size(), 4u);
}

TEST(R5Intrinsics, DoesNotFireOnDispatchLayerUsage) {
  EXPECT_TRUE(analyze_fixture("r5_good.cpp", "src/tensor/foo.cpp").empty());
}

TEST(R5Intrinsics, PerTuKernelFilesAreExempt) {
  EXPECT_TRUE(
      analyze_fixture("r5_bad.cpp", "src/kernels/gemm_avx2.cpp").empty());
  EXPECT_TRUE(
      analyze_fixture("r5_bad.cpp", "src/kernels/gemm_avx512.cpp").empty());
  EXPECT_TRUE(analyze_fixture("r5_bad.cpp", "src/kernels/q8.cpp").empty());
}

// --- R6: typed errors in comm/resilience ------------------------------------

TEST(R6TypedErrors, FiresOnQualifiedAndUnqualifiedRawThrows) {
  const auto in_comm = analyze_fixture("r6_bad.cpp", "src/comm/foo.cpp");
  EXPECT_EQ(lines_of(in_comm, "R6"), (std::vector<int>{6, 11}));
  const auto in_res = analyze_fixture("r6_bad.cpp", "src/resilience/foo.cpp");
  EXPECT_EQ(lines_of(in_res, "R6"), (std::vector<int>{6, 11}));
}

TEST(R6TypedErrors, DoesNotFireOnTypedThrowsOrOutsideThePlanes) {
  EXPECT_TRUE(analyze_fixture("r6_good.cpp", "src/comm/foo.cpp").empty());
  // checkpoint_io's runtime_errors are deliberate (model plane, not comm).
  EXPECT_TRUE(analyze_fixture("r6_bad.cpp", "src/model/foo.cpp").empty());
}

// --- R7: centralized thread spawning ----------------------------------------

TEST(R7Threads, FiresOnConstructionAndMemberDeclarations) {
  const auto fs = analyze_fixture("r7_bad.cpp", "src/metrics/foo.cpp");
  EXPECT_EQ(lines_of(fs, "R7"), (std::vector<int>{6, 11}));
}

TEST(R7Threads, DoesNotFireOnQueriesOrInTheSanctionedFiles) {
  EXPECT_TRUE(analyze_fixture("r7_good.cpp", "src/metrics/foo.cpp").empty());
  EXPECT_TRUE(
      analyze_fixture("r7_bad.cpp", "src/tensor/threadpool.cpp").empty());
  EXPECT_TRUE(analyze_fixture("r7_bad.cpp", "src/comm/world.cpp").empty());
  EXPECT_TRUE(analyze_fixture("r7_bad.cpp", "src/serve/server.cpp").empty());
  EXPECT_TRUE(
      analyze_fixture("r7_bad.cpp", "src/telemetry/exporters.cpp").empty());
}

// --- R8: ad-hoc atomic counters ---------------------------------------------

TEST(R8AtomicCounters, FiresOnNumericAtomicsInServeAndResilience) {
  const auto in_serve = analyze_fixture("r8_bad.cpp", "src/serve/foo.cpp");
  EXPECT_EQ(lines_of(in_serve, "R8"), (std::vector<int>{6, 8, 9}));
  EXPECT_EQ(in_serve.size(), 3u);
  const auto in_res = analyze_fixture("r8_bad.cpp", "src/resilience/foo.cpp");
  EXPECT_EQ(lines_of(in_res, "R8"), (std::vector<int>{6, 8, 9}));
}

TEST(R8AtomicCounters, DoesNotFireOnFlagsPointersOrOutsideItsPlanes) {
  EXPECT_TRUE(analyze_fixture("r8_good.cpp", "src/serve/foo.cpp").empty());
  // The comm plane keeps its group-local atomics (they back the traffic
  // report); R8 binds the serve and resilience planes only.
  EXPECT_TRUE(analyze_fixture("r8_bad.cpp", "src/comm/world.cpp").empty());
  EXPECT_TRUE(analyze_fixture("r8_bad.cpp", "src/telemetry/foo.cpp").empty());
}

TEST(R8AtomicCounters, ReasonedTrailingSuppressionSilencesOnlyItsLine) {
  const std::string code =
      "#include <atomic>\n"
      "std::atomic<int> next_id{1};  // orbit-lint: allow(R8) -- id "
      "allocator, not a stat\n"
      "std::atomic<int> naked{0};\n";
  const auto fs = analyze_file(lex_string("src/serve/ids.cpp", code));
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "R8");
  EXPECT_EQ(fs[0].line, 3);
}

// --- R9: hard-coded mesh-shape literals --------------------------------------

TEST(R9MeshLiterals, FiresOnFactorAssignmentsOfTwoOrMore) {
  const auto fs = analyze_fixture("r9_bad.cpp", "src/core/foo.cpp");
  EXPECT_EQ(lines_of(fs, "R9"), (std::vector<int>{6, 7, 11, 12}));
  EXPECT_EQ(fs.size(), 4u);
}

TEST(R9MeshLiterals, DoesNotFireOnDefaultsSentinelsOrComparisons) {
  EXPECT_TRUE(analyze_fixture("r9_good.cpp", "src/core/foo.cpp").empty());
}

TEST(R9MeshLiterals, ScopeIsSrcOnly) {
  // Tests and benchmarks legitimately pin exact factorizations (a 2x2x2
  // round-trip test *is* about that shape); only src/ must stay elastic.
  EXPECT_TRUE(analyze_fixture("r9_bad.cpp", "tests/core/foo.cpp").empty());
  EXPECT_TRUE(analyze_fixture("r9_bad.cpp", "bench/bench_foo.cpp").empty());
}

TEST(R9MeshLiterals, ReasonedSuppressionSilencesOnlyItsLine) {
  const std::string code =
      "struct C { int ddp = 1; };\n"
      "void f(C& c) {\n"
      "  c.ddp = 2;  // orbit-lint: allow(R9) -- doc example, not config\n"
      "  c.ddp = 4;\n"
      "}\n";
  const auto fs = analyze_file(lex_string("src/core/doc.cpp", code));
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "R9");
  EXPECT_EQ(fs[0].line, 4);
}

// --- R10: hand-rolled JSON escapers -----------------------------------------

TEST(R10JsonEscaper, FiresOnEscaperFormatStringsAnywhereInTheTree) {
  for (const char* path : {"src/telemetry/foo.cpp", "bench/bench_util.hpp",
                           "tools/ckpt_inspect.cpp", "tests/foo/test_x.cpp"}) {
    const auto fs = analyze_fixture("r10_bad.cpp", path);
    EXPECT_EQ(lines_of(fs, "R10"), (std::vector<int>{6, 10})) << path;
    EXPECT_EQ(fs.size(), 2u) << path;
  }
}

TEST(R10JsonEscaper, DoesNotFireOnTheSharedEscaperOrOtherFormats) {
  EXPECT_TRUE(analyze_fixture("r10_good.cpp", "src/trace/foo.cpp").empty());
}

TEST(R10JsonEscaper, TheJsonModuleAndTheStandaloneAnalyzerAreExempt) {
  EXPECT_TRUE(analyze_fixture("r10_bad.cpp", "src/json/json.cpp").empty());
  EXPECT_TRUE(
      analyze_fixture("r10_bad.cpp", "tools/analyze/orbit_lint.cpp").empty());
}

// --- suppressions -----------------------------------------------------------

TEST(Suppression, WellFormedDirectivesSilenceTrailingAndNextLineTargets) {
  EXPECT_TRUE(analyze_fixture("suppress_ok.cpp", "src/data/foo.cpp").empty());
}

TEST(Suppression, IllFormedDirectivesSuppressNothingAndAreReported) {
  const auto fs = analyze_fixture("suppress_bad.cpp", "src/data/foo.cpp");
  // Reason-less directive (line 6) and unknown rule id (line 10) are
  // findings themselves; all three planted R1 violations survive.
  EXPECT_EQ(lines_of(fs, "R1"), (std::vector<int>{6, 10, 14}));
  EXPECT_EQ(lines_of(fs, "directive"), (std::vector<int>{6, 10}));
  EXPECT_EQ(fs.size(), 5u);
}

// --- lexer ------------------------------------------------------------------

TEST(Lexer, StripsCommentsAndLiterals) {
  const std::string code =
      "// getenv(\"X\") in a comment\n"
      "/* std::thread t; spans\n"
      "   two lines */\n"
      "const char* s = \"getenv(\";\n"
      "const char* r = R\"(throw std::runtime_error(\"x\"))\";\n"
      "char q = '\"';\n"
      "int live = rand();\n";
  const auto fs = analyze_file(lex_string("src/model/foo.cpp", code));
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "R3");
  EXPECT_EQ(fs[0].line, 7);  // literals/comments stripped, lines still count
}

TEST(Lexer, TracksLineNumbersThroughBlockCommentsAndRawStrings) {
  const std::string code =
      "/* 1\n 2\n 3 */\n"
      "R\"(\nline\nbreaks\n)\"\n"
      ";\nint x = rand();\n";
  const auto fs = analyze_file(lex_string("src/model/foo.cpp", code));
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 9);
}

TEST(Lexer, RecordsIncludesWithLines) {
  const LexedFile f = lex_string(
      "src/x.cpp", "#include <immintrin.h>\n#include \"env/env.hpp\"\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].header, "immintrin.h");
  EXPECT_EQ(f.includes[0].line, 1);
  EXPECT_EQ(f.includes[1].header, "env/env.hpp");
  EXPECT_EQ(f.includes[1].line, 2);
}

TEST(Lexer, DirectiveMustOpenTheComment) {
  // Prose citing the grammar mid-sentence is not a directive.
  const std::string code =
      "// the grammar is: orbit-lint: allow(R1) -- reason\n"
      "int live = rand();\n";
  const auto fs = analyze_file(lex_string("src/model/foo.cpp", code));
  ASSERT_EQ(fs.size(), 1u);  // the rand() finding; no directive parsed
  EXPECT_EQ(fs[0].rule, "R3");
}

// --- CLI exit-code contract -------------------------------------------------

int run(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(Cli, RealRepoIsClean) {
  // The acceptance bar: zero findings (or reasoned suppressions) over the
  // actual tree. Runs the production binary exactly as check_build.sh does.
  EXPECT_EQ(run(std::string(ORBIT_LINT_BIN) + " --root " +
                ORBIT_LINT_REPO_ROOT + " >/dev/null"),
            0);
}

TEST(Cli, FindingsExitOne) {
  namespace fs = std::filesystem;
  const fs::path tmp = fs::path(::testing::TempDir()) / "orbit_lint_cli";
  fs::create_directories(tmp / "src");
  std::ofstream(tmp / "src" / "bad.cpp")
      << "#include <cstdlib>\nint f() { return getenv(\"X\") != nullptr; }\n";
  EXPECT_EQ(run(std::string(ORBIT_LINT_BIN) + " --root " + tmp.string() +
                " src >/dev/null"),
            1);
  // --json reports the same run machine-readably.
  const fs::path json = tmp / "out.json";
  EXPECT_EQ(run(std::string(ORBIT_LINT_BIN) + " --root " + tmp.string() +
                " --json src > " + json.string()),
            1);
  std::ifstream is(json);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"count\": 1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"rule\": \"R1\""), std::string::npos) << text;
  fs::remove_all(tmp);
}

TEST(Cli, UsageErrorsExitTwo) {
  EXPECT_EQ(run(std::string(ORBIT_LINT_BIN) + " --frobnicate 2>/dev/null"), 2);
  EXPECT_EQ(run(std::string(ORBIT_LINT_BIN) +
                " --root /nonexistent-orbit-dir 2>/dev/null"),
            2);
}

TEST(Cli, AbsentDefaultDirsAreSkippedButExplicitOnesAreNot) {
  // A tree with only src/ (no tools/bench/tests) scans under the default
  // directory set — absent defaults are a convention gap, not an error —
  // while an explicitly named missing directory is a usage error (typo).
  namespace fs = std::filesystem;
  const fs::path tmp = fs::path(::testing::TempDir()) / "orbit_lint_partial";
  fs::create_directories(tmp / "src");
  std::ofstream(tmp / "src" / "bad.cpp")
      << "#include <cstdlib>\nint f() { return getenv(\"X\") != nullptr; }\n";
  EXPECT_EQ(run(std::string(ORBIT_LINT_BIN) + " --root " + tmp.string() +
                " >/dev/null"),
            1);
  EXPECT_EQ(run(std::string(ORBIT_LINT_BIN) + " --root " + tmp.string() +
                " no_such_dir 2>/dev/null"),
            2);
  fs::remove_all(tmp);
}

TEST(Cli, ListRulesNamesEveryRule) {
  for (const auto& r : rule_catalog()) {
    EXPECT_FALSE(r.id.empty());
    EXPECT_FALSE(r.summary.empty());
  }
  EXPECT_EQ(rule_catalog().size(), 10u);
}

}  // namespace
}  // namespace orbit::lint
