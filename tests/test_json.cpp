/// \file test_json.cpp
/// \brief The JSON number and string writers against their printf
/// definition, and the parser's verdicts on malformed and borderline
/// numbers.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace {

using finser::util::JsonValue;

/// The double writer's definition: printf's %.17g, plus ".0" when that
/// reads as an integer.
std::string printf_reference(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string out = buf;
  if (std::strpbrk(buf, ".eEn") == nullptr) out += ".0";
  return out;
}

std::string written(double v) {
  std::string out;
  finser::util::append_json_double(out, v);
  return out;
}

TEST(JsonNumber, DoubleWriterMatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20140601);
  std::size_t checked = 0;
  while (checked < 1'000'000) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(written(v), printf_reference(v)) << "bits " << bits;
    ++checked;
  }
}

TEST(JsonNumber, DoubleWriterMatchesPrintfOnEdgeCases) {
  std::vector<double> edges = {0.0,     -0.0,     DBL_MIN,  -DBL_MIN,
                               DBL_MAX, -DBL_MAX, DBL_TRUE_MIN,
                               DBL_MIN / 3.0,     -DBL_TRUE_MIN * 7.0};
  // Integers up to 2^53, where every integer is still exact.
  for (int i = 0; i <= 1000; ++i) edges.push_back(i);
  for (int k = 1; k <= 53; ++k) {
    const double p = std::ldexp(1.0, k);
    edges.insert(edges.end(), {p - 1.0, p, p + 1.0, -p});
  }
  // %g switches to an exponent below 1e-4 and, at 17 digits, from 1e17.
  for (const double x : {1e-5, 1e-4, 1e16, 1e17, 9.999999999999999e16}) {
    double lo = x;
    double hi = x;
    for (int i = 0; i < 64; ++i) {
      edges.insert(edges.end(), {lo, hi, -lo});
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, DBL_MAX);
    }
  }
  for (const double v : edges) EXPECT_EQ(written(v), printf_reference(v)) << v;

  EXPECT_EQ(written(0.0), "0.0");
  EXPECT_EQ(written(-0.0), "-0.0");
  EXPECT_EQ(written(1e16), "10000000000000000.0");
  EXPECT_EQ(written(1e17), "1e+17");
  EXPECT_EQ(written(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(written(0.1), "0.10000000000000001");
  EXPECT_EQ(written(9007199254740992.0), "9007199254740992.0");
  EXPECT_EQ(written(DBL_TRUE_MIN), "4.9406564584124654e-324");
  EXPECT_EQ(written(DBL_MAX), "1.7976931348623157e+308");
}

TEST(JsonNumber, DoubleWriterRejectsNonFinite) {
  std::string out;
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(finser::util::append_json_double(out, v), finser::util::Error);
    EXPECT_THROW(JsonValue(v).dump(), finser::util::Error);
  }
  EXPECT_EQ(out, "");
}

TEST(JsonString, EscapesQuotesBackslashesAndControlCharacters) {
  const std::string raw =
      std::string("a\"b\\c/\b\f\n\r\t") + '\x01' + '\x1f' + "\xc3\xa9";
  std::string out;
  finser::util::append_json_string(out, raw);
  EXPECT_EQ(out,
            "\"a\\\"b\\\\c/\\b\\f\\n\\r\\t\\u0001\\u001f\xc3\xa9\"");
  EXPECT_EQ(JsonValue(raw).dump(), out);
  EXPECT_EQ(JsonValue::parse(out).as_string(), raw);
  out.clear();
  finser::util::append_json_string(out, "");
  EXPECT_EQ(out, "\"\"");
}

/// What parse() makes of \p text: the compact dump and kind of the value,
/// or the error text.
std::string verdict(const std::string& text) {
  try {
    const JsonValue v = JsonValue::parse(text);
    return "kind " + std::to_string(static_cast<int>(v.kind())) + ": " +
           v.dump();
  } catch (const finser::util::Error& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(JsonParse, BorderlineNumbersKeepTheirVerdicts) {
  const struct {
    const char* text;
    const char* verdict;
  } cases[] = {
      // Kinds: 2 kInt, 3 kUint, 4 kDouble. The scanner is lenient where
      // strtod is (a leading '+' or '.', a trailing '.', leading zeros).
      {"+1", "kind 4: 1.0"},
      {"1.", "kind 4: 1.0"},
      {".5", "kind 4: 0.5"},
      {"00", "kind 3: 0"},
      {"-01", "kind 2: -1"},
      {"-", "error: json: invalid number at byte 1"},
      {"--1", "error: json: invalid number at byte 3"},
      {"1e-400", "kind 4: 0.0"},
      {"1e400", "error: json: invalid number at byte 5"},
      {"1e", "error: json: invalid number at byte 2"},
      {"0x10", "error: json: trailing characters after document at byte 1"},
      {"+0x1", "error: json: trailing characters after document at byte 2"},
      {"[+0x1]", "error: json: expected ',' or ']' at byte 4"},
      {"-0", "kind 2: 0"},
      {"-0.0", "kind 4: -0.0"},
      {"5e-324", "kind 4: 4.9406564584124654e-324"},
      {"1E5", "kind 4: 100000.0"},
      {"18446744073709551615", "kind 3: 18446744073709551615"},
      {"18446744073709551616", "kind 4: 1.8446744073709552e+19"},
      {"-9223372036854775808", "kind 2: -9223372036854775808"},
      {"-9223372036854775809", "kind 4: -9.2233720368547758e+18"},
      {"[1e5 ,-]", "error: json: invalid number at byte 7"},
  };
  for (const auto& c : cases) EXPECT_EQ(verdict(c.text), c.verdict) << c.text;
}

TEST(JsonParse, StringAndObjectErrorsKeepTheirText) {
  EXPECT_EQ(verdict("\"x\ty\""),
            "error: json: raw control character in string at byte 3");
  EXPECT_EQ(verdict("\"abc"), "error: json: unterminated string at byte 4");
  EXPECT_EQ(verdict("\"ab\\"), "error: json: unterminated escape at byte 4");
  EXPECT_EQ(verdict("{\"a\": 1, \"a\": 2}"),
            "error: json: duplicate key \"a\" at byte 13");
  EXPECT_EQ(verdict("\"a\\u00e9\\n\""), "kind 5: \"a\xc3\xa9\\n\"");
  // A wide object keeps insertion order past any reserved capacity.
  std::string wide = "{";
  for (int i = 0; i < 40; ++i) {
    wide += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":" + std::to_string(i);
  }
  wide += "}";
  EXPECT_EQ(verdict(wide), "kind 7: " + wide);
}

}  // namespace
