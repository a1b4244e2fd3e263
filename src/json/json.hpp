#pragma once

#include <memory>
#include <string>
#include <vector>

/// \file json.hpp
/// The project's one JSON reader and writer. Every JSON artifact ORBIT
/// emits — Chrome traces, JSONL metric records, postmortem bundles, bench
/// `--json` reports, `ckpt_inspect --json` — is written with `escape` and
/// `number`, and every one it reads back goes through `parse`.
///
/// The reader is a strict full-grammar recursive descent parser (objects,
/// arrays, strings, numbers, bools, null): JSON whitespace only, unescaped
/// control bytes inside strings rejected (RFC 8259 §7), `\u` escapes need
/// exactly four hex digits and decode to UTF-8, and nesting deeper than
/// `kMaxDepth` is rejected, so hostile input cannot exhaust the stack.
/// Errors throw std::runtime_error naming the byte offset.

namespace orbit::json {

/// Deepest array/object nesting `parse` accepts. The deepest document the
/// project writes is about five levels.
inline constexpr int kMaxDepth = 256;

class Value;
using Object = std::vector<std::pair<std::string, Value>>;  ///< key-ordered as written
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* get(const std::string& key) const;

 private:
  friend class Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Parse one JSON document (trailing whitespace allowed, nothing else).
Value parse(const std::string& text);

/// Split a JSONL file body into parsed records, skipping blank lines.
std::vector<Value> parse_lines(const std::string& text);

/// The body of a JSON string literal (no surrounding quotes): `"`, `\` and
/// every byte below 0x20 are escaped (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`); all other bytes pass through unchanged.
std::string escape(const std::string& s);

/// A JSON number: integral values below 1e15 in magnitude print bare
/// ("42", not "4.2e+01") so counters stay greppable, others with `%.17g`
/// (round-trippable). JSON has no NaN or infinity; they are written `null`.
std::string number(double v);

}  // namespace orbit::json
