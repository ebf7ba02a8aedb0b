// Streaming JSON: the writer against Json::dump, the shared number
// formatter against printf's "%.17g", and the cursor's number reader
// against Json::parse — all on seeded random inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/reference_json_parser.hpp"

namespace anor::util {
namespace {

/// The number format Json::dump used before the shared formatter:
/// integral values below 1e15 through "%lld", everything else "%.17g".
std::string printf_number(double d) {
  char buf[40];
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

std::string formatted(double d) {
  std::string out;
  append_json_number(out, d);
  return out;
}

/// Doubles across every class the formatter branches on.
std::vector<double> special_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, inf, -inf, nan, -nan,
      std::bit_cast<double>(0x7ff0000000000001ULL),  // signalling NaN payload
      std::bit_cast<double>(0xfff8000000000abcULL),  // negative NaN payload
      DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      std::nextafter(DBL_MIN, 0.0), 1e15, -1e15, 1e15 - 1.0, -(1e15 - 1.0), 1e15 + 1.0,
      999999999999999.5, 1e15 - 0.125, 9007199254740992.0, 9007199254740994.0,
      18446744073709551616.0, 9.2233720368547758e18, -9.2233720368547758e18, 1e16, 1e17,
      1e21, 1e22, 1e-4, 1e-5, 123456789012345678.0, 0.30000000000000004, 5e-324};
  return values;
}

TEST(JsonNumberFormat, MatchesPrintfOnSpecialValues) {
  for (const double d : special_doubles()) {
    EXPECT_EQ(formatted(d), printf_number(d)) << std::bit_cast<std::uint64_t>(d);
  }
}

TEST(JsonNumberFormat, MatchesPrintfOnRandomBitPatterns) {
  Rng rng(20261017);
  std::size_t mismatches = 0;
  std::string out;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d = std::bit_cast<double>(bits);
    // Every eighth draw lands on the integer branch and its 1e15 boundary,
    // and every eighth on a subnormal; random bits rarely reach either.
    if (i % 8 == 1) d = std::trunc(std::ldexp(static_cast<double>(bits >> 11), -int(bits % 12)));
    if (i % 8 == 2) d = std::bit_cast<double>(bits & 0x800fffffffffffffULL);
    if (i % 8 == 3) d = 1e15 + static_cast<double>(static_cast<std::int64_t>(bits % 4096) - 2048);
    out.clear();
    append_json_number(out, d);
    if (out != printf_number(d) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << bits << ": " << out << " vs " << printf_number(d);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The string escaper Json::dump used before append_json_string.
std::string printf_escaped(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Random bytes biased toward the ones the escaper treats specially.
std::string random_string(Rng& rng) {
  static const std::string kPieces[] = {"\"", "\\", "\n", "\t", "\r", "\b", "\f", "\x01",
                                        "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac", "/", "a",
                                        "bt.D.x", " "};
  std::string s;
  const auto length = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < length; ++i) {
    if (rng.uniform_int(0, 3) == 0) {
      s += static_cast<char>(rng.uniform_int(0, 255));
    } else {
      s += kPieces[rng.uniform_int(0, std::size(kPieces) - 1)];
    }
  }
  return s;
}

TEST(JsonWriterProperty, StringEscapingMatchesTheOriginalEscaper) {
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::string s = random_string(rng);
    std::string out;
    append_json_string(out, s);
    ASSERT_EQ(out, printf_escaped(s));
    // And Json::parse reads the bytes back.
    ASSERT_EQ(Json::parse(out).as_string(), s);
  }
}

double random_double(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return std::bit_cast<double>(rng.next_u64());
    case 1: return static_cast<double>(rng.uniform_int(-1000, 1000));
    case 2: return rng.uniform(-1e6, 1e6);
    case 3: {
      const std::vector<double> specials = special_doubles();
      return specials[rng.uniform_int(0, static_cast<std::int64_t>(specials.size()) - 1)];
    }
    default: return std::ldexp(rng.uniform(0.5, 1.0), static_cast<int>(rng.uniform_int(-1074, 1023)));
  }
}

Json random_tree(Rng& rng, int depth) {
  const auto kind = rng.uniform_int(0, depth >= 4 ? 3 : 5);
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.uniform_int(0, 1) == 1);
    case 2: return Json(random_double(rng));
    case 3: return Json(random_string(rng));
    case 4: {
      JsonArray array;
      const auto n = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < n; ++i) array.push_back(random_tree(rng, depth + 1));
      return Json(std::move(array));
    }
    default: {
      JsonObject object;
      const auto n = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < n; ++i) object[random_string(rng)] = random_tree(rng, depth + 1);
      return Json(std::move(object));
    }
  }
}

/// Stream a tree through the writer, keys in the tree's (map) order.
void write_tree(JsonWriter& out, const Json& json) {
  switch (json.type()) {
    case Json::Type::kNull: out.null(); break;
    case Json::Type::kBool: out.value(json.as_bool()); break;
    case Json::Type::kNumber: out.value(json.as_number()); break;
    case Json::Type::kString: out.value(json.as_string()); break;
    case Json::Type::kArray:
      out.begin_array();
      for (const Json& item : json.as_array()) write_tree(out, item);
      out.end_array();
      break;
    case Json::Type::kObject:
      out.begin_object();
      for (const auto& [key, item] : json.as_object()) {
        out.key(key);
        write_tree(out, item);
      }
      out.end_object();
      break;
  }
}

TEST(JsonWriterProperty, MatchesDumpOnRandomTreesAtEveryIndent) {
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    const Json tree = random_tree(rng, 0);
    for (const int indent : {-1, 0, 2, 4}) {
      JsonWriter out(indent);
      write_tree(out, tree);
      ASSERT_EQ(out.finish().dump(), tree.dump(indent)) << "indent " << indent;
    }
  }
}

TEST(JsonWriterProperty, EmptyContainersAndScalarsAtTopLevel) {
  for (const int indent : {-1, 2}) {
    JsonWriter out(indent);
    out.begin_object().key("a").begin_array().end_array().key("b").begin_object().end_object();
    out.end_object();
    EXPECT_EQ(out.finish().dump(),
              indent < 0 ? R"({"a":[],"b":{}})" : "{\n  \"a\": [],\n  \"b\": {}\n}");
  }
  JsonWriter scalar;
  scalar.value(std::int64_t{42});
  EXPECT_EQ(scalar.finish().dump(), "42");
}

TEST(JsonWriterProperty, KeysMustComeInByteOrder) {
  const auto write = [](std::initializer_list<std::string_view> keys) {
    JsonWriter out;
    out.begin_object();
    for (const std::string_view key : keys) out.key(key).null();
    out.end_object();
    return std::move(out).finish().dump();
  };
  EXPECT_EQ(write({"", "a", "ab", "b", "z", "\xc3\xa9"}),
            R"({"":null,"a":null,"ab":null,"b":null,"z":null,"é":null})");
  EXPECT_THROW(write({"b", "a"}), std::logic_error);
  EXPECT_THROW(write({"a", "a"}), std::logic_error);
  EXPECT_THROW(write({"ab", "a"}), std::logic_error);
  // Bytes compare unsigned, as std::map<std::string> orders them.
  EXPECT_THROW(write({"\xc3\xa9", "z"}), std::logic_error);

  // Each object has its own order; a closed object's keys do not carry
  // over to its parent or to a sibling.
  JsonWriter nested;
  nested.begin_object().key("b").begin_object().key("z").null().end_object();
  nested.key("c").begin_array();
  nested.begin_object().key("y").null().end_object();
  nested.begin_object().key("a").null().end_object();
  nested.end_array().end_object();
  EXPECT_EQ(nested.finish().dump(), R"({"b":{"z":null},"c":[{"y":null},{"a":null}]})");

  JsonWriter top;
  EXPECT_THROW(top.key("a"), std::logic_error);
  JsonWriter in_array;
  in_array.begin_array();
  EXPECT_THROW(in_array.key("a"), std::logic_error);
}

/// Json::parse's verdict on one number document, as bits.
bool dom_number(const std::string& token, double& out) {
  try {
    out = Json::parse(token).as_number();
    return true;
  } catch (const ConfigError&) {
    return false;
  }
}

bool cursor_number(const std::string& token, double& out) {
  try {
    JsonCursor in(token);
    out = in.number();
    in.finish();
    return true;
  } catch (const ConfigError&) {
    return false;
  }
}

/// The reference parser's verdict on one number document: std::stod, or
/// std::strtod where stod rejects a subnormal result.
bool reference_number(const std::string& token, double& out) {
  try {
    out = reference::parse(token).as_number();
    return true;
  } catch (const ConfigError&) {
    return false;
  }
}

/// Json::parse, the cursor and the reference parser agree on every token:
/// all reject it, or all read the same bits.
void expect_same_verdict(const std::string& token) {
  double dom = 0.0;
  double cursor = 0.0;
  double reference = 0.0;
  const bool dom_ok = dom_number(token, dom);
  const bool cursor_ok = cursor_number(token, cursor);
  const bool reference_ok = reference_number(token, reference);
  ASSERT_EQ(cursor_ok, dom_ok) << "token '" << token << "'";
  ASSERT_EQ(reference_ok, dom_ok) << "token '" << token << "'";
  if (dom_ok) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cursor), std::bit_cast<std::uint64_t>(dom))
        << "token '" << token << "'";
    ASSERT_EQ(std::bit_cast<std::uint64_t>(reference), std::bit_cast<std::uint64_t>(dom))
        << "token '" << token << "'";
  }
}

TEST(JsonCursorProperty, NumberTokensReadAsJsonParseReadsThem) {
  Rng rng(3);
  static const char kChars[] = "0123456789.eE+-";
  for (int i = 0; i < 200000; ++i) {
    std::string token;
    if (rng.uniform_int(0, 1) == 0) {
      // Arbitrary strings over the number charset.
      const auto length = rng.uniform_int(0, 9);
      for (std::int64_t k = 0; k < length; ++k) token += kChars[rng.uniform_int(0, 14)];
    } else {
      // Well-formed spellings, signed and unsigned, across magnitudes.
      static const char* kFormats[] = {"%.17g", "%g", "%e", "%+.3e", "%.0f", "%+g", "%.20g",
                                       "%E", "%.1f"};
      char buf[512];
      std::snprintf(buf, sizeof buf, kFormats[rng.uniform_int(0, 8)], random_double(rng));
      token = buf;
    }
    expect_same_verdict(token);
  }
  for (const char* token : {"+5", "+.5", "+-5", "-+5", "++5", "+", "-", ".", "1e", "1e+",
                            "00012", "-0", "1.e5", ".e5", "1e999", "-1e999", "1e-400",
                            "4.9e-324", "2.2250738585072011e-308", "1.7976931348623159e308"}) {
    expect_same_verdict(token);
  }
  // Subnormals read exactly; nan and inf cannot be spelled at all.
  double d = 0.0;
  ASSERT_TRUE(cursor_number("4.9406564584124654e-324", d));
  EXPECT_EQ(d, DBL_TRUE_MIN);
  ASSERT_TRUE(dom_number("4.9406564584124654e-324", d));
  EXPECT_EQ(d, DBL_TRUE_MIN);
  EXPECT_FALSE(cursor_number("nan", d));
  EXPECT_FALSE(cursor_number("inf", d));
  EXPECT_FALSE(cursor_number("-inf", d));
}

/// Json::parse and the original parser agree: both reject, or both build
/// the same tree.
void expect_same_parse(const std::string& text) {
  std::optional<Json> ours;
  std::optional<Json> original;
  try {
    ours = Json::parse(text);
  } catch (const ConfigError&) {
  }
  try {
    original = reference::parse(text);
  } catch (const ConfigError&) {
  }
  ASSERT_EQ(ours.has_value(), original.has_value()) << "text '" << text << "'";
  if (ours) {
    ASSERT_EQ(*ours, *original) << "text '" << text << "'";
    ASSERT_EQ(ours->dump(), original->dump()) << "text '" << text << "'";
  }
}

TEST(JsonCursorProperty, JsonParseMatchesTheOriginalParser) {
  for (const char* text :
       {"", " ", "\t\n\v\f\r 1 \v", "{", "}", "[", "[1,]", "[,1]", "{\"a\" 1}",
        "{\"a\":1,}", "{,}", "{\"a\":}", "tru", "true ", "truex", "nul", "null", "falsey",
        "1 2", "\"unterminated", "\"\\u00e9\\u20ac\\u0000\\/\"", "\"\\uD800\"",
        "\"\\u12G4\"", "\"\\x\"", "1..2", "-", "+1", "--1", "[[[[[]]]]]",
        "{\"a\":1,\"a\":2}", "{\"b\":{\"a\":[]},\"a\":{}}", "[1e999]", "[4.9e-324]",
        "{\"k\" : [ true , false , null , -0 , \"s\" ] }", "\"\x01\x7f\xc3\xa9\""}) {
    expect_same_parse(text);
  }

  // Dumped random trees, then the same texts with random edits: deleted,
  // inserted and replaced bytes biased toward the JSON alphabet, and
  // truncations.
  static const std::string kAlphabet = "{}[]:,\"\\ \t\n\v\f\rtrufalsn0123456789.eE+-/u";
  Rng rng(19);
  for (int i = 0; i < 3000; ++i) {
    const Json tree = random_tree(rng, 0);
    for (const int indent : {-1, 2}) {
      const std::string text = tree.dump(indent);
      expect_same_parse(text);
      for (int edit = 0; edit < 4; ++edit) {
        std::string mutated = text;
        const auto edits = rng.uniform_int(1, 3);
        for (std::int64_t k = 0; k < edits; ++k) {
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutated.size())));
          const char c = rng.uniform_int(0, 3) == 0
                             ? static_cast<char>(rng.uniform_int(0, 255))
                             : kAlphabet[rng.uniform_int(0, kAlphabet.size() - 1)];
          switch (rng.uniform_int(0, 3)) {
            case 0:
              if (at < mutated.size()) mutated.erase(at, 1);
              break;
            case 1: mutated.insert(at, 1, c); break;
            case 2:
              if (at < mutated.size()) mutated[at] = c;
              break;
            default: mutated.resize(at); break;
          }
        }
        expect_same_parse(mutated);
      }
    }
  }
}

TEST(JsonCursorProperty, WalksObjectsKeepingTheFirstDuplicate) {
  JsonCursor in(R"( { "b" : [ 1 , 2 ] , "a" : "x\ty" , "a" : "dup" , "z" : {"q": [null, true]} } )");
  static constexpr std::array<std::string_view, 2> kKeys = {"a", "b"};
  std::string a;
  std::vector<double> b;
  in.read_object(kKeys, 0b11, [&](std::size_t field) {
    if (field == 0) {
      in.string(a);
    } else {
      in.begin_array();
      while (in.next_element()) b.push_back(in.number());
    }
  });
  in.finish();
  EXPECT_EQ(a, "x\ty");
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0}));

  JsonCursor missing(R"({"a": "x"})");
  EXPECT_THROW(missing.read_object(kKeys, 0b11, [&](std::size_t) { missing.skip_value(); }),
               ConfigError);
  JsonCursor trailing(R"({} x)");
  trailing.skip_value();
  EXPECT_THROW(trailing.finish(), ConfigError);
}

}  // namespace
}  // namespace anor::util
