#include "util/argparse.hpp"

#include <gtest/gtest.h>

namespace mnemo::util {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.add_flag("verbose", "chatty output");
  p.add_option("count", "how many", "10");
  p.add_option("name", "a label", "");
  return p;
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  ArgParser p = make_parser();
  std::string error;
  ASSERT_TRUE(p.parse({}, &error));
  EXPECT_FALSE(p.has_flag("verbose"));
  EXPECT_EQ(p.get("count"), "10");
  EXPECT_EQ(p.get_u64("count"), 10u);
  EXPECT_TRUE(p.positional().empty());
}

TEST(ArgParser, SpaceAndEqualsForms) {
  ArgParser p = make_parser();
  std::string error;
  ASSERT_TRUE(p.parse({"--count", "42", "--name=widget"}, &error));
  EXPECT_EQ(p.get_u64("count"), 42u);
  EXPECT_EQ(p.get("name"), "widget");
}

TEST(ArgParser, FlagsAndPositionals) {
  ArgParser p = make_parser();
  std::string error;
  ASSERT_TRUE(p.parse({"--verbose", "input.csv", "more"}, &error));
  EXPECT_TRUE(p.has_flag("verbose"));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.csv");
}

TEST(ArgParser, UnknownOptionFails) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--bogus"}, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--count"}, &error));
  EXPECT_NE(error.find("requires a value"), std::string::npos);
}

TEST(ArgParser, FlagWithValueFails) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--verbose=yes"}, &error));
}

TEST(ArgParser, NumericConversionErrorsThrow) {
  // Whole-string numbers only: no silent wrap of a sign, no stop at the
  // first non-digit (`1e3` is not 1).
  for (const char* bad : {"abc", "-1", "4x", "1e3"}) {
    ArgParser p = make_parser();
    std::string error;
    ASSERT_TRUE(p.parse({"--count", bad}, &error));
    EXPECT_THROW((void)p.get_u64("count"), std::invalid_argument) << bad;
  }
  for (const char* bad : {"abc", "0.3abc", " 0.3"}) {
    ArgParser p = make_parser();
    std::string error;
    ASSERT_TRUE(p.parse({"--count", bad}, &error));
    EXPECT_THROW((void)p.get_double("count"), std::invalid_argument) << bad;
  }
}

TEST(ArgParser, GetDoubleParses) {
  ArgParser p = make_parser();
  std::string error;
  ASSERT_TRUE(p.parse({"--count", "0.25"}, &error));
  EXPECT_DOUBLE_EQ(p.get_double("count"), 0.25);
}

TEST(ArgParser, UnknownOptionSuggestsNearestMatch) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--nmae", "x"}, &error));
  EXPECT_NE(error.find("unknown option --nmae"), std::string::npos);
  EXPECT_NE(error.find("did you mean --name?"), std::string::npos);
}

TEST(ArgParser, UnknownOptionWithoutCloseMatchGetsNoSuggestion) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--frobnicate"}, &error));
  EXPECT_NE(error.find("unknown option --frobnicate"), std::string::npos);
  EXPECT_EQ(error.find("did you mean"), std::string::npos);
}

TEST(ArgParser, DuplicateOptionFails) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--count", "1", "--count", "2"}, &error));
  EXPECT_NE(error.find("duplicate option --count"), std::string::npos);
}

TEST(ArgParser, DuplicateFlagFails) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--verbose", "--verbose"}, &error));
  EXPECT_NE(error.find("duplicate option --verbose"), std::string::npos);
}

TEST(ArgParser, MixedFormDuplicateAlsoFails) {
  ArgParser p = make_parser();
  std::string error;
  EXPECT_FALSE(p.parse({"--count=1", "--count", "2"}, &error));
  EXPECT_NE(error.find("duplicate option"), std::string::npos);
}

TEST(ClosestMatch, FindsTransposedTypo) {
  EXPECT_EQ(closest_match("moedl", {"model", "store", "threads"}), "model");
}

TEST(ClosestMatch, FindsOneEditAway) {
  EXPECT_EQ(closest_match("measrue", {"measure", "advise", "report"}),
            "measure");
}

TEST(ClosestMatch, RejectsDistantStrings) {
  EXPECT_EQ(closest_match("zzz", {"model", "store"}), "");
  EXPECT_EQ(closest_match("a", {"ab"}), "");  // distance >= query length
}

TEST(ArgParser, HelpMentionsEveryOption) {
  const ArgParser p = make_parser();
  const std::string help = p.help();
  EXPECT_NE(help.find("--verbose"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("default: 10"), std::string::npos);
}

TEST(StrictParse, WholeStringNumbersOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("8"), 8u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "abc", "-1", "+1", "4x", " 4", "4 ", "1.5",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_u64(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_double("0.1"), 0.1);
  EXPECT_EQ(parse_double("-2.5e-1"), -0.25);
  for (const char* bad : {"", "abc", "0.1x", "1e999", " 0.1"}) {
    EXPECT_EQ(parse_double(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace mnemo::util
