#pragma once

#include <string>
#include <vector>

/// orbit_lint's lexical front end: a comment- and literal-stripping C++
/// tokenizer. No preprocessing, no parsing — just a faithful token stream
/// with line numbers, which is exactly the altitude the project-invariant
/// rules need (identifier patterns, brace depth, call shapes). Full-parse
/// questions belong to clang-tidy; this tool exists for the invariants
/// clang-tidy cannot express.
namespace orbit::lint {

struct Token {
  std::string text;  ///< identifier / number / punctuator ("::" is one token)
  int line = 0;      ///< 1-based source line
};

/// An inline `// orbit-lint: allow(<rule>) -- <reason>` directive.
/// It silences findings for `rule` on its target line: the directive's own
/// line when code precedes the comment, otherwise (comment alone on the
/// line) the next line. `reason` is mandatory; a reason-less directive is
/// itself reported and suppresses nothing.
struct Suppression {
  int line = 0;            ///< line the directive sits on
  int target_line = 0;     ///< line whose findings it silences
  std::vector<std::string> rules;  ///< rule ids inside allow(...)
  bool has_reason = false; ///< text follows the mandatory "--"
  bool malformed = false;  ///< unparsable allow(...) clause
};

struct Include {
  std::string header;  ///< e.g. "immintrin.h" (angle or quote form)
  int line = 0;
};

/// An ordinary (non-raw) string literal, kept apart from the token stream.
struct StringLiteral {
  std::string text;  ///< spelling between the quotes, escapes as written
  int line = 0;      ///< line of the opening quote
};

struct LexedFile {
  std::string path;  ///< repo-relative path with forward slashes
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<Include> includes;
  std::vector<StringLiteral> strings;
};

/// Tokenize `contents` (comments, string/char literals — including raw
/// strings — stripped from `tokens`; lines counted through them). Ordinary
/// string literals are also recorded in `strings`.
LexedFile lex_string(const std::string& path, const std::string& contents);

/// Read and tokenize a file on disk. Throws std::runtime_error when the
/// file cannot be read.
LexedFile lex_file(const std::string& repo_relative_path,
                   const std::string& absolute_path);

}  // namespace orbit::lint
