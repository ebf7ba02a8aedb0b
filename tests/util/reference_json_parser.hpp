// Reference JSON parser for differential tests: the character-by-character
// recursive-descent parser util::Json::parse used before it became a tree
// builder over util::JsonCursor, kept verbatim but for one number rule: a
// value in the subnormal range, which std::stod rejects as out of range,
// reads as std::strtod computes it (Json::parse reads subnormals exactly).
// Json::parse must accept exactly the texts this accepts and build equal
// trees from them.
#pragma once

#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace anor::util::reference {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("JSON parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size()) throw ConfigError("JSON parse error: unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail(std::string("expected '") + word + "'");
      ++pos_;
    }
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return Json(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return Json(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double d = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument("partial");
      return Json(d);
    } catch (const std::out_of_range&) {
      char* end = nullptr;
      const double d = std::strtod(token.c_str(), &end);
      if (end == token.c_str() + token.size() && d != 0.0 && std::abs(d) <= DBL_MIN) {
        return Json(d);
      }
    } catch (const std::exception&) {
    }
    fail("malformed number '" + token + "'");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

inline Json parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace anor::util::reference
