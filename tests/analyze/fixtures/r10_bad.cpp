// R10 firing fixture: hand-rolled JSON string escapers outside src/json/ —
// each copy drifts from the shared one (a missed \r, raw control bytes).
#include <cstdio>
std::string esc(char c) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04x", c);  // line 6: finding
  return buf;
}
const char* kUpper =
    "prefix \\u%04X suffix";  // line 10: finding
