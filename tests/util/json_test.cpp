#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace anor::util {
namespace {

TEST(Json, ScalarTypes) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(1.5).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_TRUE(Json(JsonArray{}).is_array());
  EXPECT_TRUE(Json(JsonObject{}).is_object());
}

TEST(Json, AccessorsThrowOnTypeMismatch) {
  const Json j(1.5);
  EXPECT_THROW(j.as_string(), ConfigError);
  EXPECT_THROW(j.as_bool(), ConfigError);
  EXPECT_THROW(j.as_array(), ConfigError);
  EXPECT_THROW(j.as_object(), ConfigError);
  EXPECT_THROW(Json("x").as_number(), ConfigError);
}

TEST(Json, ParsesScalars) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParsesNested) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_TRUE(j.at("a").as_array()[2].at("b").as_bool());
  EXPECT_EQ(j.at("c").as_string(), "x");
}

TEST(Json, ParsesEscapes) {
  const Json j = Json::parse(R"("line\nquote\"back\\slashA")");
  EXPECT_EQ(j.as_string(), "line\nquote\"back\\slashA");
}

TEST(Json, ParsesUnicodeEscapes) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");     // e-acute
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac"); // euro sign
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(Json::parse(""), ConfigError);
  EXPECT_THROW(Json::parse("{"), ConfigError);
  EXPECT_THROW(Json::parse("[1,]"), ConfigError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ConfigError);
  EXPECT_THROW(Json::parse("tru"), ConfigError);
  EXPECT_THROW(Json::parse("1 2"), ConfigError);
  EXPECT_THROW(Json::parse("\"unterminated"), ConfigError);
  EXPECT_THROW(Json::parse("1..2"), ConfigError);
}

TEST(Json, RoundTripCompact) {
  const std::string text = R"({"arr":[1,2.5,null],"nested":{"k":false},"s":"v"})";
  const Json j = Json::parse(text);
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(Json, RoundTripPretty) {
  JsonObject obj;
  obj["x"] = Json(1.0);
  obj["y"] = Json(JsonArray{Json("a"), Json("b")});
  const Json j(std::move(obj));
  const Json reparsed = Json::parse(j.dump(2));
  EXPECT_EQ(reparsed, j);
}

TEST(Json, SubnormalsRoundTripThroughDumpAndParse) {
  // The writer spells subnormals out; a spec or grid it wrote must read
  // back to the same bits.
  EXPECT_EQ(Json(JsonObject{{"x", Json(DBL_TRUE_MIN)}}).dump(), R"({"x":4.9406564584124654e-324})");
  std::vector<double> values = {DBL_TRUE_MIN, -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0),
                                -std::nextafter(DBL_MIN, 0.0)};
  Rng rng(324);
  while (values.size() < 20'000) {
    const double d = std::bit_cast<double>(rng.next_u64() & 0x800fffffffffffffULL);
    if (d != 0.0) values.push_back(d);
  }
  for (const double d : values) {
    const Json doc(JsonObject{{"x", Json(d)}, {"y", Json(JsonArray{Json(d)})}});
    for (const int indent : {-1, 2}) {
      const std::string text = doc.dump(indent);
      const Json back = Json::parse(text);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(back.at("x").as_number()),
                std::bit_cast<std::uint64_t>(d))
          << text;
      ASSERT_EQ(back, doc) << text;
    }
  }
}

TEST(Json, IntegersDumpWithoutDecimal) {
  EXPECT_EQ(Json(42.0).dump(), "42");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, ObjectHelpers) {
  const Json j = Json::parse(R"({"a": 1, "s": "x", "b": true})");
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zz"));
  EXPECT_DOUBLE_EQ(j.number_or("a", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(j.number_or("zz", 9.0), 9.0);
  EXPECT_EQ(j.string_or("s", "d"), "x");
  EXPECT_EQ(j.string_or("zz", "d"), "d");
  EXPECT_TRUE(j.bool_or("b", false));
  EXPECT_FALSE(j.bool_or("zz", false));
  EXPECT_THROW(j.at("zz"), ConfigError);
}

TEST(Json, AsIntRounds) {
  EXPECT_EQ(Json(2.6).as_int(), 3);
  EXPECT_EQ(Json(-2.6).as_int(), -3);
}

TEST(JsonCheckedInteger, AcceptsExactlyTheTargetRange) {
  EXPECT_EQ(checked_integer<int>(Json(2147483647.0), "k"), 2147483647);
  EXPECT_EQ(checked_integer<int>(Json(-2147483648.0), "k"), -2147483647 - 1);
  EXPECT_EQ(checked_integer<int>(Json(-0.0), "k"), 0);
  EXPECT_EQ(checked_integer<std::uint64_t>(Json(0.0), "k"), 0u);
  // The largest double below 2^64.
  EXPECT_EQ(checked_integer<std::uint64_t>(Json(18446744073709549568.0), "k"),
            18446744073709549568ULL);
  for (const double bad : {2147483648.0, -2147483649.0, 2.5, -0.5, 1e300, 5e-324}) {
    EXPECT_THROW(checked_integer<int>(Json(bad), "k"), ConfigError) << bad;
  }
  for (const double bad : {-1.0, 18446744073709551616.0, 0.5, -1e300}) {
    EXPECT_THROW(checked_integer<std::uint64_t>(Json(bad), "k"), ConfigError) << bad;
  }
  EXPECT_THROW(checked_integer<int>(Json("7"), "k"), ConfigError);
  EXPECT_THROW(checked_integer<int>(Json(), "k"), ConfigError);
}

TEST(JsonCheckedInteger, ErrorNamesTheKeyAndOrFallsBack) {
  const Json doc = Json::parse(R"({"nodes": 4294967298, "seed": 3})");
  try {
    (void)checked_integer_or(doc, "nodes", 1);
    ADD_FAILURE() << "accepted 4294967298 as an int";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'nodes'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("4294967298"), std::string::npos) << e.what();
  }
  EXPECT_EQ(checked_integer_or<std::uint64_t>(doc, "seed", 1), 3u);
  EXPECT_EQ(checked_integer_or<std::uint64_t>(doc, "absent", 9), 9u);
}

TEST(Json, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/anor_json_test.json";
  JsonObject obj;
  obj["power_w"] = Json(JsonArray{Json(100.0), Json(200.0)});
  save_json_file(path, Json(obj));
  const Json loaded = load_json_file(path);
  EXPECT_EQ(loaded.at("power_w").as_array().size(), 2u);
  std::remove(path.c_str());
}

TEST(Json, MissingFileThrows) {
  EXPECT_THROW(load_json_file("/nonexistent/path/x.json"), ConfigError);
}

}  // namespace
}  // namespace anor::util
