#include "lexer.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace orbit::lint {
namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parse an `orbit-lint: allow(<rules>) -- <reason>` directive out of a
/// line-comment body. Returns false when the body is not a directive at all.
/// The marker must open the comment (after whitespace) — prose that merely
/// cites the grammar mid-sentence is not a directive.
bool parse_directive(const std::string& body, Suppression* out) {
  std::size_t at = 0;
  while (at < body.size() &&
         std::isspace(static_cast<unsigned char>(body[at])) != 0) {
    ++at;
  }
  if (body.compare(at, 11, "orbit-lint:") != 0) return false;
  std::size_t i = at + std::string("orbit-lint:").size();
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i])) != 0) ++i;
  if (body.compare(i, 5, "allow") != 0) {
    out->malformed = true;
    return true;
  }
  i += 5;
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i])) != 0) ++i;
  if (i >= body.size() || body[i] != '(') {
    out->malformed = true;
    return true;
  }
  const std::size_t close = body.find(')', i);
  if (close == std::string::npos) {
    out->malformed = true;
    return true;
  }
  // Split the rule list on commas.
  std::string inside = body.substr(i + 1, close - i - 1);
  std::stringstream ss(inside);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    std::size_t b = 0;
    std::size_t e = rule.size();
    while (b < e && std::isspace(static_cast<unsigned char>(rule[b])) != 0) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(rule[e - 1])) != 0) --e;
    if (e > b) out->rules.push_back(rule.substr(b, e - b));
  }
  if (out->rules.empty()) {
    out->malformed = true;
    return true;
  }
  // The mandatory "-- <reason>" tail.
  const std::size_t dashes = body.find("--", close);
  if (dashes != std::string::npos) {
    for (std::size_t r = dashes + 2; r < body.size(); ++r) {
      if (std::isspace(static_cast<unsigned char>(body[r])) == 0) {
        out->has_reason = true;
        break;
      }
    }
  }
  return true;
}

}  // namespace

LexedFile lex_string(const std::string& path, const std::string& contents) {
  LexedFile out;
  out.path = path;

  const std::size_t n = contents.size();
  std::size_t i = 0;
  int line = 1;
  // Line numbers of tokens seen on the current physical line — used to
  // decide whether a trailing suppression targets its own line or the next.
  int last_token_line = 0;

  auto push = [&](std::string text) {
    out.tokens.push_back(Token{std::move(text), line});
    last_token_line = line;
  };

  while (i < n) {
    const char c = contents[i];

    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    // Line comment — the only place suppression directives live.
    if (c == '/' && i + 1 < n && contents[i + 1] == '/') {
      std::size_t end = i + 2;
      while (end < n && contents[end] != '\n') ++end;
      const std::string body = contents.substr(i + 2, end - i - 2);
      Suppression s;
      if (parse_directive(body, &s)) {
        s.line = line;
        s.target_line = (last_token_line == line) ? line : line + 1;
        out.suppressions.push_back(std::move(s));
      }
      i = end;
      continue;
    }

    // Block comment.
    if (c == '/' && i + 1 < n && contents[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(contents[i] == '*' && contents[i + 1] == '/')) {
        if (contents[i] == '\n') ++line;
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }

    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && contents[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < n && contents[d] != '(' && contents[d] != '\n') ++d;
      if (d < n && contents[d] == '(') {
        const std::string delim = contents.substr(i + 2, d - i - 2);
        const std::string close = ")" + delim + "\"";
        std::size_t end = contents.find(close, d + 1);
        if (end == std::string::npos) end = n;
        for (std::size_t k = i; k < end && k < n; ++k) {
          if (contents[k] == '\n') ++line;
        }
        i = (end == n) ? n : end + close.size();
        continue;
      }
      // Not actually a raw string ("R" identifier followed elsewhere) —
      // fall through to identifier handling below.
    }

    // String / char literal (escape-aware).
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int open_line = line;
      const std::size_t start = ++i;
      while (i < n && contents[i] != quote) {
        if (contents[i] == '\\' && i + 1 < n) {
          ++i;
        } else if (contents[i] == '\n') {
          ++line;  // unterminated literal: keep line counts honest
        }
        ++i;
      }
      if (quote == '"') {
        out.strings.push_back(
            StringLiteral{contents.substr(start, i - start), open_line});
      }
      if (i < n) ++i;  // closing quote
      continue;
    }

    // Preprocessor #include: record the header, skip the rest of the line.
    if (c == '#') {
      std::size_t j = i + 1;
      while (j < n && (contents[j] == ' ' || contents[j] == '\t')) ++j;
      if (contents.compare(j, 7, "include") == 0) {
        std::size_t end = j + 7;
        while (end < n && contents[end] != '\n') ++end;
        const std::string rest = contents.substr(j + 7, end - j - 7);
        std::size_t open = rest.find_first_of("<\"");
        if (open != std::string::npos) {
          const char closer = rest[open] == '<' ? '>' : '"';
          const std::size_t shut = rest.find(closer, open + 1);
          if (shut != std::string::npos) {
            out.includes.push_back(
                Include{rest.substr(open + 1, shut - open - 1), line});
          }
        }
        i = end;
        continue;
      }
      // Other directives (#define, #if...) tokenize normally so macro
      // bodies still hit the rules.
      push("#");
      ++i;
      continue;
    }

    if (is_ident_start(c)) {
      std::size_t end = i + 1;
      while (end < n && is_ident_char(contents[end])) ++end;
      push(contents.substr(i, end - i));
      i = end;
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t end = i + 1;
      while (end < n && (is_ident_char(contents[end]) || contents[end] == '.')) {
        ++end;
      }
      push(contents.substr(i, end - i));
      i = end;
      continue;
    }

    // "::" is load-bearing for the rules (std::thread, std::getenv, ...).
    if (c == ':' && i + 1 < n && contents[i + 1] == ':') {
      push("::");
      i += 2;
      continue;
    }

    // "->" matters for member-call detection.
    if (c == '-' && i + 1 < n && contents[i + 1] == '>') {
      push("->");
      i += 2;
      continue;
    }

    push(std::string(1, c));
    ++i;
  }

  return out;
}

LexedFile lex_file(const std::string& repo_relative_path,
                   const std::string& absolute_path) {
  std::ifstream is(absolute_path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("orbit_lint: cannot read " + absolute_path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return lex_string(repo_relative_path, buf.str());
}

}  // namespace orbit::lint
