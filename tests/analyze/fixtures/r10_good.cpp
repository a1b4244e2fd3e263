// R10 non-firing fixture: calling the shared escaper, other hex formats,
// literal \u escapes, and the format quoted in a comment are all fine.
#include <string>

#include "json/json.hpp"
std::string field(const std::string& s) {
  return "\"" + orbit::json::escape(s) + "\"";
}
// prose: snprintf(buf, n, "\\u%04x", c) is what R10 rejects
const char* kHex = "0x%04x";
const char* kLiteralEscape = "\\u0041";
