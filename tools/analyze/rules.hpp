#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"

/// orbit_lint's rule engine: ten project invariants (R1–R10) that generic
/// clang-tidy cannot express because they encode ORBIT-specific module
/// boundaries, not C++ semantics. The catalog, scopes, and allow-lists are
/// documented in DESIGN.md §4g; each rule has firing + non-firing fixtures
/// under tests/analyze/fixtures/.
namespace orbit::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     ///< "R1".."R10", or "directive" for bad suppressions
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Static rule catalog (id + one-line summary), for --list-rules and docs.
const std::vector<RuleInfo>& rule_catalog();

/// Run every rule whose scope covers `f.path`, apply well-formed inline
/// suppressions, and report malformed/reason-less/unknown-rule directives
/// as findings of rule "directive". Results are sorted by line.
std::vector<Finding> analyze_file(const LexedFile& f);

}  // namespace orbit::lint
