#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

/// orbit::json — the one reader/writer behind every JSON artifact: escape
/// round-trips every byte, non-finite numbers stay valid JSON, and the
/// reader's strictness (control bytes, \u escapes, nesting depth) holds on
/// hostile input.

namespace orbit::json {
namespace {

std::string parse_string(const std::string& body) {
  return parse("\"" + body + "\"").as_string();
}

TEST(Json, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    EXPECT_EQ(parse_string(escape(s)), s) << "byte " << b;
    all += s;
  }
  EXPECT_EQ(parse_string(escape(all)), all);
}

TEST(Json, EscapeNamesCommonControlsAndHexesTheRest) {
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(escape("caf\xc3\xa9/\x7f"), "caf\xc3\xa9/\x7f");
}

TEST(Json, RejectsUnescapedControlBytesInStrings) {
  EXPECT_THROW(parse("\"a\tb\""), std::runtime_error);
  EXPECT_THROW(parse(std::string("\"a\0b\"", 5)), std::runtime_error);
  EXPECT_THROW(parse("{\"k\":\"line\nbreak\"}"), std::runtime_error);
  // Whitespace between tokens is not inside a string.
  EXPECT_EQ(parse("{\t\"k\" :\r\n1}").get("k")->as_number(), 1.0);
}

TEST(Json, UnicodeEscapesNeedFourHexDigits) {
  EXPECT_THROW(parse(R"("a\u12zzb")"), std::runtime_error);
  EXPECT_THROW(parse(R"("\u12")"), std::runtime_error);
  EXPECT_EQ(parse(R"("\u0041\u00e9\u20ac")").as_string(),
            "A\xc3\xa9\xe2\x82\xac");
}

/// The reader's error for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Json, SurrogatePairsDecodeToOneFourByteSequence) {
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse(R"("a\uD800\uDC00b")").as_string(), "a\xf0\x90\x80\x80" "b");
  EXPECT_EQ(parse(R"("\udbff\udfff")").as_string(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, LoneOrReversedSurrogatesAreRejected) {
  for (const char* bad : {R"("\ud83d")", R"("\ud83dx")", R"("\ud83d\n")",
                          R"("\ud83d\u0041")", R"("\ude00")",
                          R"("\ude00\ud83d")", R"("\ud83d\ud83d")"}) {
    const std::string msg = parse_error(bad);
    EXPECT_EQ(msg.rfind("json: ", 0), 0u) << bad << ": " << msg;
    EXPECT_NE(msg.find("surrogate"), std::string::npos) << bad << ": " << msg;
    EXPECT_NE(msg.find(" at byte "), std::string::npos) << bad << ": " << msg;
  }
}

TEST(Json, NestingIsBoundedAtKMaxDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse(nested(kMaxDepth)));
  EXPECT_THROW(parse(nested(kMaxDepth + 1)), std::runtime_error);
  // Hostile input: a million unclosed brackets throw, naming the offset,
  // instead of overflowing the stack.
  try {
    parse(std::string(1000000, '['));
    FAIL() << "deep nesting was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos)
        << e.what();
  }
}

TEST(Json, NumberKeepsIntegralsBareAndWritesNonFiniteAsNull) {
  EXPECT_EQ(number(42.0), "42");
  EXPECT_EQ(number(-3.0), "-3");
  EXPECT_EQ(number(0.25), "0.25");
  EXPECT_EQ(number(0.1), "0.10000000000000001");
  EXPECT_EQ(number(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  for (const double v : {0.1, 1.0 / 3.0, -2.5e-7, 123456789.125, 1e300}) {
    EXPECT_EQ(parse(number(v)).as_number(), v);
  }
  EXPECT_TRUE(parse(number(std::nan(""))).is_null());
}

TEST(Json, ParseLinesSkipsBlankLinesAndNamesBadRecords) {
  const auto recs = parse_lines("{\"a\":1}\n\n  \r\n[2]\n");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].get("a")->as_number(), 1.0);
  EXPECT_EQ(recs[1].as_array().at(0).as_number(), 2.0);
  EXPECT_THROW(parse_lines("{\"a\":1}\n{\"a\":NaN}\n"), std::runtime_error);
}

}  // namespace
}  // namespace orbit::json
