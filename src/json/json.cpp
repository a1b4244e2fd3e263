#include "json/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace orbit::json {

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return num_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return str_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return *arr_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return *obj_;
}

const Value* Value::get(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : *obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_keyword(const char* kw) {
    std::size_t n = 0;
    while (kw[n] != '\0') ++n;
    if (s_.compare(pos_, n, kw) != 0) return false;
    pos_ += n;
    return true;
  }

  Value value() {
    skip_ws();
    const char c = peek();
    Value v;
    switch (c) {
      case '{':
      case '[': {
        // The only recursion: bounding it bounds the stack on any input.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        v = c == '{' ? object_value() : array_value();
        --depth_;
        return v;
      }
      case '"':
        return string_value();
      case 't':
        if (!consume_keyword("true")) fail("bad keyword");
        v.type_ = Value::Type::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_keyword("false")) fail("bad keyword");
        v.type_ = Value::Type::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_keyword("null")) fail("bad keyword");
        return v;
      default:
        return number_value();
    }
  }

  Value object_value() {
    Value v;
    v.type_ = Value::Type::kObject;
    v.obj_ = std::make_shared<Object>();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      Value key = string_value();
      skip_ws();
      expect(':');
      v.obj_->emplace_back(key.str_, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array_value() {
    Value v;
    v.type_ = Value::Type::kArray;
    v.arr_ = std::make_shared<Array>();
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_->push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value string_value() {
    Value v;
    v.type_ = Value::Type::kString;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control byte in string");
      }
      if (c != '\\') {
        v.str_ += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': v.str_ += '"'; break;
        case '\\': v.str_ += '\\'; break;
        case '/': v.str_ += '/'; break;
        case 'b': v.str_ += '\b'; break;
        case 'f': v.str_ += '\f'; break;
        case 'n': v.str_ += '\n'; break;
        case 'r': v.str_ += '\r'; break;
        case 't': v.str_ += '\t'; break;
        case 'u': {
          unsigned code = hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) fail("unpaired surrogate");
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate must be followed by an escaped low one; the
            // pair names one supplementary code point.
            if (s_.compare(pos_, 2, "\\u") != 0) fail("unpaired surrogate");
            pos_ += 2;
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(v.str_, code);
          break;
        }
        default:
          fail("bad escape");
      }
    }
    return v;
  }

  /// The four hex digits of a \u escape.
  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return code;
  }

  /// Decode a code point as UTF-8 so \u round-trips are lossless.
  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value number_value() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string text = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number \"" + text + "\"");
    Value v;
    v.type_ = Value::Type::kNumber;
    v.num_ = d;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

Value parse(const std::string& text) { return Parser(text).document(); }

std::vector<Value> parse_lines(const std::string& text) {
  std::vector<Value> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      out.push_back(parse(line));
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace orbit::json
