#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "finser/util/config.hpp"
#include "finser/util/error.hpp"

namespace finser::util {
namespace {

TEST(Config, ParsesKeysValuesAndComments) {
  const auto cfg = KeyValueConfig::parse(
      "# campaign setup\n"
      "array.rows = 9\n"
      "cell.sigma_vt = 0.05   ; inline comment\n"
      "\n"
      "output.dir = finser_out\n");
  EXPECT_EQ(cfg.size(), 3u);
  EXPECT_TRUE(cfg.has("array.rows"));
  EXPECT_EQ(cfg.get_int("array.rows", 0), 9);
  EXPECT_DOUBLE_EQ(cfg.get_double("cell.sigma_vt", 0.0), 0.05);
  EXPECT_EQ(cfg.get_string("output.dir", ""), "finser_out");
}

TEST(Config, FallbacksWhenAbsent) {
  const auto cfg = KeyValueConfig::parse("");
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  const auto list = cfg.get_double_list("missing", {1.0, 2.0});
  EXPECT_EQ(list.size(), 2u);
}

TEST(Config, BoolSpellings) {
  const auto cfg = KeyValueConfig::parse(
      "a = true\nb = Yes\nc = 1\nd = off\ne = FALSE\nf = maybe\n");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_TRUE(cfg.get_bool("b", false));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
  EXPECT_FALSE(cfg.get_bool("e", true));
  EXPECT_THROW(cfg.get_bool("f", true), InvalidArgument);
}

TEST(Config, DoubleLists) {
  const auto cfg = KeyValueConfig::parse("vdds = 0.7, 0.8,0.9 , 1.1\n");
  const auto v = cfg.get_double_list("vdds", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 0.7);
  EXPECT_DOUBLE_EQ(v[3], 1.1);
}

TEST(Config, TypeErrorsThrow) {
  const auto cfg = KeyValueConfig::parse("a = banana\nb = 1.5x\nl = 1, two\n");
  EXPECT_THROW(cfg.get_double("a", 0.0), InvalidArgument);
  EXPECT_THROW(cfg.get_int("b", 0), InvalidArgument);
  EXPECT_THROW(cfg.get_double_list("l", {}), InvalidArgument);
  // A numeric string still works as a string.
  EXPECT_EQ(cfg.get_string("a", ""), "banana");
}

TEST(Config, MalformedLinesRejected) {
  EXPECT_THROW(KeyValueConfig::parse("just some words\n"), InvalidArgument);
  EXPECT_THROW(KeyValueConfig::parse("= value\n"), InvalidArgument);
  EXPECT_THROW(KeyValueConfig::parse("a = 1\na = 2\n"), InvalidArgument);
}

TEST(Config, ErrorsNameKeyAndSourceLine) {
  const auto cfg = KeyValueConfig::parse(
      "# campaign\n"
      "alpha = 1\n"
      "beta = oops\n");
  EXPECT_EQ(cfg.line_of("alpha"), 2);
  EXPECT_EQ(cfg.line_of("beta"), 3);
  EXPECT_EQ(cfg.line_of("missing"), 0);
  try {
    cfg.get_double("beta", 0.0);
    FAIL() << "expected InvalidArgument for a non-numeric value";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("beta"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

/// Counts and sizes (array.rows, mc.strikes, ...) must be positive; the
/// signed value is checked before any cast, so -5 cannot wrap to 2^64 - 5.
TEST(Config, SizesMustBePositive) {
  const auto cfg = KeyValueConfig::parse(
      "mc.strikes = -5\n"
      "mc.pv_samples = 0\n"
      "array.rows = 3\n");
  EXPECT_EQ(cfg.get_size("array.rows", 9), 3u);
  EXPECT_EQ(cfg.get_size("array.cols", 9), 9u);  // absent: the fallback
  for (const auto& [key, line] :
       {std::pair{"mc.strikes", "line 1"}, std::pair{"mc.pv_samples", "line 2"}}) {
    try {
      cfg.get_size(key, 200);
      FAIL() << "expected InvalidArgument for " << key;
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
      EXPECT_NE(msg.find(line), std::string::npos) << msg;
      EXPECT_NE(msg.find("positive"), std::string::npos) << msg;
    }
  }
}

TEST(Config, DuplicateKeyErrorNamesBothLines) {
  try {
    KeyValueConfig::parse("alpha = 1\n# comment\nalpha = 2\n");
    FAIL() << "expected InvalidArgument for a duplicated key";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("alpha"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  }
}

TEST(Config, UnknownKeyTracking) {
  const auto cfg = KeyValueConfig::parse("used = 1\ntypo.key = 2\n");
  EXPECT_EQ(cfg.get_int("used", 0), 1);
  const auto unknown = cfg.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo.key");
}

TEST(Config, EditDistanceIsLevenshtein) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("strikes", "strikse"), 2u);  // transpose = 2 edits
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("mc.seed", "mc.sed"), 1u);
}

TEST(Config, NearestKeyCapsDistanceAtTwo) {
  const std::vector<std::string> keys = {"mc.strikes", "mc.seed", "array.rows"};
  EXPECT_EQ(nearest_key("mc.strikse", keys), "mc.strikes");
  EXPECT_EQ(nearest_key("mc.sed", keys), "mc.seed");
  EXPECT_EQ(nearest_key("completely.different", keys), "");
  // An exact match is not a suggestion.
  EXPECT_EQ(nearest_key("mc.seed", {"mc.seed"}), "");
  // Deterministic tie-break: smaller distance first, then map/list order.
  EXPECT_EQ(nearest_key("ac", std::vector<std::string>{"ab", "ac1", "ad"}),
            "ab");
}

TEST(Config, SuggestionForUsesRequestedKeysAsVocabulary) {
  const auto cfg = KeyValueConfig::parse("mc.strikse = 100\n");
  // The program asks for its supported knobs (present in the file or not)...
  EXPECT_EQ(cfg.get_int("mc.strikes", 60000), 60000);
  EXPECT_EQ(cfg.get_int("array.rows", 9), 9);
  // ...which makes the typo diagnosable.
  const auto unknown = cfg.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "mc.strikse");
  EXPECT_EQ(cfg.suggestion_for("mc.strikse"), "mc.strikes");
  EXPECT_EQ(cfg.suggestion_for("nothing.like.it"), "");
}

TEST(Config, ParseFileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "finser_cfg_test.ini").string();
  {
    std::ofstream os(path);
    os << "x = 3.5\n";
  }
  const auto cfg = KeyValueConfig::parse_file(path);
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 0.0), 3.5);
  std::filesystem::remove(path);
  EXPECT_THROW(KeyValueConfig::parse_file("/nonexistent/cfg.ini"), Error);
}

}  // namespace
}  // namespace finser::util
