#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <initializer_list>
#include <set>

namespace orbit::lint {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_any(const std::string& path, std::initializer_list<const char*> files) {
  for (const char* f : files) {
    if (path == f) return true;
  }
  return false;
}

const Token* tok(const LexedFile& f, std::size_t i) {
  return i < f.tokens.size() ? &f.tokens[i] : nullptr;
}

bool is(const Token* t, const char* text) {
  return t != nullptr && t->text == text;
}

void add(std::vector<Finding>* out, const LexedFile& f, int line,
         const char* rule, std::string message) {
  out->push_back(Finding{f.path, line, rule, std::move(message)});
}

/// R1 — no raw getenv outside the strict-env gateway (src/env/env.cpp).
void rule_r1(const LexedFile& f, std::vector<Finding>* out) {
  if (f.path == "src/env/env.cpp") return;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if ((t.text == "getenv" || t.text == "secure_getenv") &&
        is(tok(f, i + 1), "(")) {
      add(out, f, t.line, "R1",
          "raw " + t.text +
              "() — ORBIT_* knobs must go through the strict orbit::env "
              "gateway (src/env/env.hpp)");
    }
  }
}

/// R2 — no blocking orbit::comm collective lexically inside a scope that
/// holds a lock_guard/unique_lock/scoped_lock/shared_lock. This is the
/// deadlock shape the comm watchdog only catches at runtime, on the
/// allocation's dime.
void rule_r2(const LexedFile& f, std::vector<Finding>* out) {
  // Unambiguous collective names fire on any call; `send`/`recv`/`gather`/
  // `scatter` are common words and require member-call context (./->/::).
  static const std::set<std::string> kDistinct = {
      "all_reduce", "all_gather", "reduce_scatter", "broadcast", "barrier"};
  static const std::set<std::string> kMemberOnly = {"send", "recv", "gather",
                                                    "scatter"};
  static const std::set<std::string> kLocks = {"lock_guard", "unique_lock",
                                               "scoped_lock", "shared_lock"};

  int depth = 0;
  std::vector<int> lock_depths;  // scope depth each active lock lives in

  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.text == "{") {
      ++depth;
      continue;
    }
    if (t.text == "}") {
      depth = std::max(0, depth - 1);
      while (!lock_depths.empty() && lock_depths.back() > depth) {
        lock_depths.pop_back();
      }
      continue;
    }

    if (kLocks.count(t.text) != 0) {
      // Declaration shape: lock_guard [<...>] name ( / { — this excludes
      // `unique_lock&` parameters (the *callee* does not take the lock).
      std::size_t j = i + 1;
      if (is(tok(f, j), "<")) {
        int angle = 1;
        ++j;
        while (j < f.tokens.size() && angle > 0) {
          if (f.tokens[j].text == "<") ++angle;
          if (f.tokens[j].text == ">") --angle;
          ++j;
        }
      }
      const Token* name = tok(f, j);
      if (name != nullptr && !name->text.empty() &&
          (std::isalpha(static_cast<unsigned char>(name->text[0])) != 0 ||
           name->text[0] == '_')) {
        const Token* open = tok(f, j + 1);
        if (is(open, "(") || is(open, "{")) {
          lock_depths.push_back(depth);
        }
      }
      continue;
    }

    if (lock_depths.empty() || !is(tok(f, i + 1), "(")) continue;
    const bool member_ctx =
        i > 0 && (f.tokens[i - 1].text == "." || f.tokens[i - 1].text == "->" ||
                  f.tokens[i - 1].text == "::");
    if (kDistinct.count(t.text) != 0 ||
        (member_ctx && kMemberOnly.count(t.text) != 0)) {
      add(out, f, t.line, "R2",
          "blocking collective '" + t.text +
              "' called while a lock is held — the deadlock shape the comm "
              "watchdog only catches at runtime");
    }
  }
}

/// R3 — no unseeded randomness in src/: bitwise kill-and-resume requires
/// every random stream to flow from the seeded Rng/splitmix64 paths.
void rule_r3(const LexedFile& f, std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.text == "rand" && is(tok(f, i + 1), "(")) {
      add(out, f, t.line, "R3",
          "rand() — use the seeded orbit Rng (bitwise-resume guarantee)");
      continue;
    }
    if (t.text == "random_device") {
      add(out, f, t.line, "R3",
          "std::random_device — nondeterministic seed breaks bitwise "
          "kill-and-resume; thread a seeded Rng instead");
      continue;
    }
    if (t.text == "mt19937" || t.text == "mt19937_64") {
      // `mt19937::result_type` and friends are type-level uses, not streams.
      if (is(tok(f, i + 1), "::")) continue;
      // Seeded construction: mt19937 name(seed) / name{seed} /
      // mt19937(seed) / mt19937{seed}. Unseeded: empty or absent argument
      // list (default seed 5489 is shared by every rank — and identical
      // across relaunches only by accident, not by checkpointed state).
      std::size_t j = i + 1;
      const Token* nxt = tok(f, j);
      if (nxt != nullptr && nxt->text != "(" && nxt->text != "{") ++j;
      const Token* open = tok(f, j);
      const Token* arg = tok(f, j + 1);
      const bool seeded =
          (is(open, "(") && !is(arg, ")")) || (is(open, "{") && !is(arg, "}"));
      if (!seeded) {
        add(out, f, t.line, "R3",
            "unseeded std::" + t.text +
                " — seed explicitly from checkpointed Rng state");
      }
    }
  }
}

/// R4 — src/trace and src/serve share one steady_clock epoch; system_clock
/// timestamps silently desynchronize the merged timeline.
void rule_r4(const LexedFile& f, std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/trace/") && !starts_with(f.path, "src/serve/")) {
    return;
  }
  for (const Token& t : f.tokens) {
    if (t.text == "system_clock") {
      add(out, f, t.line, "R4",
          "system_clock in a steady-clock domain — trace/serve timestamps "
          "share the steady_clock trace epoch");
    }
  }
}

/// R5 — x86 intrinsics stay inside the per-TU kernel files so every other
/// layer remains ISA-agnostic (one binary carries all dispatch levels).
void rule_r5(const LexedFile& f, std::vector<Finding>* out) {
  if (in_any(f.path, {"src/kernels/gemm_avx2.cpp", "src/kernels/gemm_avx512.cpp",
                      "src/kernels/q8.cpp"})) {
    return;
  }
  for (const Include& inc : f.includes) {
    if (inc.header.size() >= 8 &&
        inc.header.substr(inc.header.size() - 8) == "intrin.h") {
      add(out, f, inc.line, "R5",
          "#include <" + inc.header +
              "> outside src/kernels — the tensor layer is ISA-agnostic");
    }
  }
  static const std::array<const char*, 6> kPrefixes = {
      "_mm_", "_mm256_", "_mm512_", "__m128", "__m256", "__m512"};
  for (const Token& t : f.tokens) {
    for (const char* p : kPrefixes) {
      if (starts_with(t.text, p)) {
        add(out, f, t.line, "R5",
            "x86 intrinsic '" + t.text +
                "' outside the per-TU kernel files (src/kernels/gemm_avx*.cpp"
                ", q8.cpp)");
        break;
      }
    }
  }
}

/// R6 — src/comm and src/resilience throw only typed errors: the Supervisor
/// classifies failures by type, and a raw runtime_error is indistinguishable
/// from "unknown, terminal".
void rule_r6(const LexedFile& f, std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/comm/") &&
      !starts_with(f.path, "src/resilience/")) {
    return;
  }
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (f.tokens[i].text != "throw") continue;
    std::size_t j = i + 1;
    if (is(tok(f, j), "std") && is(tok(f, j + 1), "::")) j += 2;
    if (is(tok(f, j), "runtime_error")) {
      add(out, f, f.tokens[i].line, "R6",
          "raw std::runtime_error — use the typed hierarchy the Supervisor "
          "classifies (CommCheckError/RankKilledError/env::EnvError/...)");
    }
  }
}

/// R7 — thread creation is centralized: the tensor threadpool, run_spmd's
/// rank/watchdog threads, and the serve worker pool. A stray std::thread
/// bypasses set_num_threads accounting and the supervisor's teardown.
void rule_r7(const LexedFile& f, std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  if (in_any(f.path, {"src/tensor/threadpool.cpp", "src/comm/world.cpp",
                      "src/serve/server.cpp", "src/serve/server.hpp",
                      "src/telemetry/exporters.cpp",
                      "src/telemetry/exporters.hpp"})) {
    return;
  }
  for (std::size_t i = 0; i + 2 < f.tokens.size(); ++i) {
    if (f.tokens[i].text != "std" || f.tokens[i + 1].text != "::") continue;
    const std::string& name = f.tokens[i + 2].text;
    if (name != "thread" && name != "jthread") continue;
    // std::thread::hardware_concurrency() queries, it does not spawn.
    if (is(tok(f, i + 3), "::")) continue;
    add(out, f, f.tokens[i].line, "R7",
        "naked std::" + name +
            " — spawn through the threadpool, run_spmd, or the serve worker "
            "pool");
  }
}

/// R8 — serve/resilience statistics flow through the telemetry registry:
/// an ad-hoc std::atomic counter is invisible to the Prometheus/JSONL
/// exporters and the flight recorder, so overload accounting silently
/// splits into two sources of truth. Flags (atomic<bool>) and pointers are
/// not counters and stay legal.
void rule_r8(const LexedFile& f, std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/serve/") &&
      !starts_with(f.path, "src/resilience/")) {
    return;
  }
  static const std::set<std::string> kNumeric = {
      "int",      "unsigned", "long",     "short",    "size_t",
      "ptrdiff_t", "int8_t",  "int16_t",  "int32_t",  "int64_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "float",
      "double"};
  for (std::size_t i = 0; i + 3 < f.tokens.size(); ++i) {
    if (f.tokens[i].text != "std" || f.tokens[i + 1].text != "::" ||
        f.tokens[i + 2].text != "atomic") {
      continue;
    }
    std::size_t j = i + 3;
    if (!is(tok(f, j), "<")) continue;
    int angle = 1;
    ++j;
    bool numeric = false;
    bool flag_or_ptr = false;
    while (j < f.tokens.size() && angle > 0) {
      const std::string& t = f.tokens[j].text;
      if (t == "<") {
        ++angle;
      } else if (t == ">") {
        --angle;
      } else if (kNumeric.count(t) != 0) {
        numeric = true;
      } else if (t == "bool" || t == "*") {
        flag_or_ptr = true;
      }
      ++j;
    }
    if (numeric && !flag_or_ptr) {
      add(out, f, f.tokens[i].line, "R8",
          "ad-hoc std::atomic counter — serve/resilience stats must be "
          "telemetry registry instruments (Counter/Gauge), or the exporters "
          "and postmortem bundles never see them");
    }
  }
}

/// R9 — no hard-coded (ddp, fsdp, tp) mesh factorizations in src/: elastic
/// training (core/reshard.hpp) re-chooses the factorization at relaunch,
/// so production code must take mesh factors from config or environment
/// (ORBIT_ELASTIC_SHAPES), never bake them in. `= 0` (sentinel) and `= 1`
/// (the identity default) stay legal; literal factorizations belong in
/// tests and bench drivers, which are out of scope.
void rule_r9(const LexedFile& f, std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  const auto int_literal_ge2 = [](const Token* t) -> long {
    if (t == nullptr || t->text.empty()) return -1;
    for (char c : t->text) {
      if (c < '0' || c > '9') return -1;
    }
    const long v = std::strtol(t->text.c_str(), nullptr, 10);
    return v >= 2 ? v : -1;
  };
  for (std::size_t i = 0; i + 2 < f.tokens.size(); ++i) {
    const std::string& name = f.tokens[i].text;
    if (name != "ddp" && name != "fsdp" && name != "tp") continue;
    if (!is(tok(f, i + 1), "=")) continue;
    const long v = int_literal_ge2(tok(f, i + 2));
    if (v < 0) continue;
    add(out, f, f.tokens[i].line, "R9",
        "hard-coded mesh factor " + name + " = " + std::to_string(v) +
            " — mesh shapes in src/ must flow from config or "
            "ORBIT_ELASTIC_SHAPES so elastic shrink can re-choose them "
            "(literal factorizations belong in tests/bench)");
  }
}

/// R10 — one JSON string escaper: `orbit::json::escape` (src/json/). A
/// `\\u%04x` format string is the signature of a hand-rolled copy, and
/// copies drift (a missed `\r`, raw control bytes). tools/analyze is exempt:
/// the analyzer is standalone by design and links no orbit library.
void rule_r10(const LexedFile& f, std::vector<Finding>* out) {
  if (starts_with(f.path, "src/json/") ||
      starts_with(f.path, "tools/analyze/")) {
    return;
  }
  for (const StringLiteral& s : f.strings) {
    if (s.text.find("\\\\u%04") == std::string::npos) continue;
    add(out, f, s.line, "R10",
        "hand-rolled JSON string escaper (a \\u%04x format) — write JSON "
        "strings with orbit::json::escape (src/json/json.hpp)");
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"R1", "no raw getenv outside src/env/env.cpp (strict ORBIT_* gateway)"},
      {"R2", "no blocking orbit::comm collective under a held lock"},
      {"R3", "no rand()/random_device/unseeded mt19937 in src/"},
      {"R4", "no system_clock in src/trace or src/serve (steady epoch)"},
      {"R5", "no x86 intrinsics outside src/kernels gemm_avx*/q8 TUs"},
      {"R6", "no raw throw std::runtime_error in src/comm, src/resilience"},
      {"R7", "no naked std::thread outside threadpool/run_spmd/serve pool"},
      {"R8", "no ad-hoc std::atomic counters in src/serve, src/resilience"},
      {"R9", "no hard-coded (ddp, fsdp, tp) mesh literals in src/ (elastic)"},
      {"R10", "no hand-rolled JSON escaper (\\u%04x) outside src/json/"},
  };
  return kCatalog;
}

std::vector<Finding> analyze_file(const LexedFile& f) {
  std::vector<Finding> raw;
  rule_r1(f, &raw);
  rule_r2(f, &raw);
  rule_r3(f, &raw);
  rule_r4(f, &raw);
  rule_r5(f, &raw);
  rule_r6(f, &raw);
  rule_r7(f, &raw);
  rule_r8(f, &raw);
  rule_r9(f, &raw);
  rule_r10(f, &raw);

  static const std::set<std::string> kKnown = {
      "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10"};
  std::vector<Finding> out;

  // Directive hygiene first: a malformed / reason-less / unknown-rule
  // suppression is itself a finding and silences nothing.
  for (const Suppression& s : f.suppressions) {
    if (s.malformed) {
      add(&out, f, s.line, "directive",
          "malformed orbit-lint directive — expected "
          "`// orbit-lint: allow(<rule>) -- <reason>`");
      continue;
    }
    if (!s.has_reason) {
      add(&out, f, s.line, "directive",
          "orbit-lint suppression without a reason — append `-- <why>` "
          "(the rationale is mandatory)");
    }
    for (const std::string& r : s.rules) {
      if (kKnown.count(r) == 0) {
        add(&out, f, s.line, "directive",
            "orbit-lint suppression names unknown rule '" + r + "'");
      }
    }
  }

  for (Finding& fd : raw) {
    bool suppressed = false;
    for (const Suppression& s : f.suppressions) {
      if (s.malformed || !s.has_reason || s.target_line != fd.line) continue;
      if (std::find(s.rules.begin(), s.rules.end(), fd.rule) != s.rules.end()) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(fd));
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace orbit::lint
