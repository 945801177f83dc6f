#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/config.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace presp {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(RngTest, NextBelowHitsAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5'000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20'000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// -------------------------------------------------------------- stats

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(StatsTest, PercentileRejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 101), InvalidArgument);
}

TEST(StatsTest, LinearFitRecoversLine) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 + 2.0 * x);
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(StatsTest, MapeZeroForPerfectModel) {
  EXPECT_DOUBLE_EQ(mape({1, 2, 4}, {1, 2, 4}), 0.0);
  EXPECT_NEAR(mape({10, 10}, {11, 9}), 0.1, 1e-12);
}

// -------------------------------------------------------------- table

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"design", "minutes"});
  t.add_row({"soc_1", "89"});
  t.add_row({"soc_22", "152"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| design | minutes |"), std::string::npos);
  EXPECT_NE(out.find("| soc_1  |      89 |"), std::string::npos);
  EXPECT_NE(out.find("| soc_22 |     152 |"), std::string::npos);
}

TEST(TableTest, RejectsRowWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
  EXPECT_EQ(TextTable::num(89.0, 0), "89");
}

// ------------------------------------------------------------- string

TEST(StringTest, SplitAndJoinRoundTrip) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
}

TEST(StringTest, TrimRemovesEdges) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringTest, ParseIntRejectsGarbage) {
  EXPECT_EQ(parse_int(" 42 "), 42);
  EXPECT_THROW(parse_int("4x2"), ConfigError);
  EXPECT_THROW(parse_int(""), ConfigError);
}

TEST(StringTest, ParseDoubleParsesAndRejects) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_THROW(parse_double("two"), ConfigError);
}

// ------------------------------------------------------------- config

TEST(ConfigTest, ParsesSectionsAndTypes) {
  const auto cfg = Config::parse(
      "# comment\n"
      "top = 1\n"
      "[soc]\n"
      "rows = 3\n"
      "clock_mhz = 78.0\n"
      "enable = yes\n");
  EXPECT_EQ(cfg.get_int("", "top"), 1);
  EXPECT_EQ(cfg.get_int("soc", "rows"), 3);
  EXPECT_DOUBLE_EQ(cfg.get_double("soc", "clock_mhz"), 78.0);
  EXPECT_TRUE(cfg.get_bool_or("soc", "enable", false));
}

TEST(ConfigTest, MissingKeyThrowsAndFallbacksWork) {
  const auto cfg = Config::parse("[a]\nx = 1\n");
  EXPECT_THROW(cfg.get("a", "y"), ConfigError);
  EXPECT_EQ(cfg.get_or("a", "y", "def"), "def");
  EXPECT_EQ(cfg.get_int_or("a", "y", 9), 9);
}

TEST(ConfigTest, DuplicateKeyRejected) {
  EXPECT_THROW(Config::parse("[a]\nx = 1\nx = 2\n"), ConfigError);
}

TEST(ConfigTest, MalformedLinesRejected) {
  EXPECT_THROW(Config::parse("[unterminated\n"), ConfigError);
  EXPECT_THROW(Config::parse("novalue\n"), ConfigError);
  EXPECT_THROW(Config::parse("= bare\n"), ConfigError);
}

TEST(ConfigTest, RoundTripThroughToString) {
  const auto cfg = Config::parse("[s]\na = 1\nb = two\n");
  const auto again = Config::parse(cfg.to_string());
  EXPECT_EQ(again.get("s", "a"), "1");
  EXPECT_EQ(again.get("s", "b"), "two");
}

TEST(ConfigTest, KeysPreserveOrder) {
  const auto cfg = Config::parse("[s]\nz = 1\na = 2\nm = 3\n");
  EXPECT_EQ(cfg.keys("s"), (std::vector<std::string>{"z", "a", "m"}));
}

// --------------------------------------------------------------- JSON

TEST(JsonTest, WriterEscapesStringsAndFormatsNumbers) {
  std::string out;
  append_json_string(out, "q\"b\\n\nt\tr\r\x01\x1f" "\xc3\xa9");
  EXPECT_EQ(out, R"("q\"b\\n\nt\tr\r\u0001\u001f)" "\xc3\xa9\"");
  const auto number = [](double v) {
    std::string text;
    append_json_number(text, v);
    return text;
  };
  EXPECT_EQ(number(42.0), "42");
  EXPECT_EQ(number(-0.0), "0");
  EXPECT_EQ(number(0.25), "0.25");
  EXPECT_EQ(number(1e15), "1e+15");
  EXPECT_EQ(number(-1e300), "-1e+300");
  EXPECT_EQ(number(std::nan("")), "null");
  EXPECT_EQ(number(-HUGE_VAL), "null");
}

TEST(JsonTest, ReaderDecodesEscapesAndRejectsMalformedInput) {
  JsonReader escapes(R"("\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00")", "t");
  EXPECT_EQ(escapes.string(),
            "\"\\/\b\f\n\r\tA\xc3\xa9\xf0\x9f\x98\x80");
  escapes.finish();

  JsonReader walk(R"( {"a": [1, -2.5e1, true, null, {"x": "y"}], "b": 7} )",
                  "t");
  std::int64_t b = 0;
  walk.members([&](const std::string& key) {
    if (key == "b") b = walk.integer(0, 7);
    else walk.skip_value();
  });
  walk.finish();
  EXPECT_EQ(b, 7);

  const auto rejects = [](const std::string& text, auto&& read) {
    JsonReader reader(text, "ctx");
    try {
      read(reader);
      reader.finish();
    } catch (const ConfigError& e) {
      return std::string(e.what()).rfind("ctx: ", 0) == 0;
    }
    return false;
  };
  const auto integer = [](JsonReader& r) { r.integer(0, 10); };
  EXPECT_TRUE(rejects("11", integer));
  EXPECT_TRUE(rejects("1.5", integer));
  EXPECT_TRUE(rejects("1e300", integer));
  EXPECT_TRUE(rejects("99999999999999999999", integer));
  const auto number = [](JsonReader& r) { r.number(); };
  EXPECT_TRUE(rejects("nan", number));
  EXPECT_TRUE(rejects("1e999", number));
  EXPECT_TRUE(rejects("1 2", number));
  const auto string = [](JsonReader& r) { r.string(); };
  EXPECT_TRUE(rejects(R"("a)", string));
  EXPECT_TRUE(rejects("\"a\nb\"", string));
  EXPECT_TRUE(rejects(R"("\x")", string));
  EXPECT_TRUE(rejects(R"("\ud83d")", string));
  const auto skip = [](JsonReader& r) { r.skip_value(); };
  EXPECT_TRUE(rejects("{\"a\" 1}", skip));
  EXPECT_TRUE(rejects("[1,]", skip));
  EXPECT_TRUE(rejects(std::string(1000, '['), skip));
}

}  // namespace
}  // namespace presp
