#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/error.hpp"

namespace anor::util {

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw ConfigError("Json: expected bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw ConfigError("Json: expected number");
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  return static_cast<std::int64_t>(std::llround(d));
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw ConfigError("Json: expected string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ConfigError("Json: expected array");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ConfigError("Json: expected array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ConfigError("Json: expected object");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ConfigError("Json: expected object");
}

const Json& Json::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw ConfigError("Json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  const JsonObject* o = std::get_if<JsonObject>(&value_);
  return o != nullptr && o->count(key) != 0;
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

template <class T>
T checked_integer(const Json& value, const std::string& key) {
  // T's values are exactly the integers in [lowest, 2^digits): both bounds
  // are powers of two, so the comparisons below are exact.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lowest = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (value.is_number()) {
    const double d = value.as_number();
    if (std::isfinite(d) && std::trunc(d) == d && d >= lowest && d < limit) {
      return static_cast<T>(d);
    }
  }
  throw ConfigError("'" + key + "' must be an integer in [" +
                    std::to_string(std::numeric_limits<T>::min()) + ", " +
                    std::to_string(std::numeric_limits<T>::max()) + "], got " + value.dump());
}

template int checked_integer<int>(const Json&, const std::string&);
template std::uint32_t checked_integer<std::uint32_t>(const Json&, const std::string&);
template std::uint64_t checked_integer<std::uint64_t>(const Json&, const std::string&);

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void append_json_number(std::string& out, double d) {
  // to_chars with precision 17 in general format is printf's "%.17g"
  // (NaN and infinities included) at a fraction of the cost.
  char buf[32];
  const bool integral = std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15;
  const std::to_chars_result end =
      integral ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d))
               : std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17);
  out.append(buf, end.ptr);
}

namespace {

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += as_bool() ? "true" : "false"; break;
    case Type::kNumber: append_json_number(out, as_number()); break;
    case Type::kString: append_json_string(out, as_string()); break;
    case Type::kArray: {
      const JsonArray& arr = as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out += ',';
        if (indent >= 0) append_indent(out, indent, depth + 1);
        arr[i].dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const JsonObject& obj = as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        if (indent >= 0) append_indent(out, indent, depth + 1);
        append_json_string(out, key);
        out += indent >= 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Json::parse's tree builder: one value, read with the cursor.
Json parse_value(JsonCursor& in) {
  switch (in.peek()) {
    case '{': {
      JsonObject object;
      in.begin_object();
      std::string_view key;
      while (in.next_key(key)) {
        std::string name(key);  // the view ends at the next key
        Json value = parse_value(in);
        object.emplace(std::move(name), std::move(value));  // the first duplicate wins
      }
      return Json(std::move(object));
    }
    case '[': {
      JsonArray array;
      in.begin_array();
      while (in.next_element()) array.push_back(parse_value(in));
      return Json(std::move(array));
    }
    case '"': {
      std::string s;
      in.string(s);
      return Json(std::move(s));
    }
    case 't':
    case 'f': return Json(in.boolean());
    case 'n': in.null(); return Json(nullptr);
    default: {
      // The cache reader's rule: from_chars over the whole token, so a
      // subnormal the writer emitted reads back exactly.
      const std::string_view token = in.number_token();
      double d = 0.0;
      if (!parse_json_number(token, d)) in.fail("malformed number '" + std::string(token) + "'");
      return Json(d);
    }
  }
}

}  // namespace

Json Json::parse(const std::string& text) {
  JsonCursor in(text);
  Json value = parse_value(in);
  in.finish();
  return value;
}

// --- JsonWriter ------------------------------------------------------------

void JsonWriter::next_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;  // the document's top-level value
  Level& level = levels_[depth_ - 1];
  if (level.nonempty) out_ += ',';
  level.nonempty = true;
  if (indent_ >= 0) append_indent(out_, indent_, static_cast<int>(depth_));
}

void JsonWriter::open(char bracket) {
  next_item();
  out_ += bracket;
  if (depth_ == levels_.size()) levels_.emplace_back();
  Level& level = levels_[depth_++];
  level.object = bracket == '{';
  level.nonempty = false;
}

void JsonWriter::close(char bracket) {
  const bool nonempty = levels_[--depth_].nonempty;
  if (nonempty && indent_ >= 0) append_indent(out_, indent_, static_cast<int>(depth_));
  out_ += bracket;
}

JsonWriter& JsonWriter::begin_object() {
  open('{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open('[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (depth_ == 0 || !levels_[depth_ - 1].object) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  Level& level = levels_[depth_ - 1];
  if (level.nonempty && name <= level.last_key) {
    throw std::logic_error("JsonWriter: key \"" + std::string(name) +
                           "\" does not sort after \"" + level.last_key + "\"");
  }
  level.last_key.assign(name);
  next_item();
  append_json_string(out_, name);
  out_ += indent_ >= 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  next_item();
  append_json_number(out_, d);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  next_item();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  next_item();
  append_json_string(out_, s);
  return *this;
}

JsonWriter& JsonWriter::null() {
  next_item();
  out_ += "null";
  return *this;
}

// --- JsonCursor ------------------------------------------------------------

namespace {

/// Number-token characters after an optional leading '-'.
bool is_number_char(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

/// Deeper nesting than this in a skipped value reads as malformed rather
/// than recursing without bound.
constexpr int kMaxSkipDepth = 256;

}  // namespace

bool parse_json_number(std::string_view token, double& out) {
  const char* first = token.data();
  const char* last = first + token.size();
  // The readers have always taken a leading '+' (std::stod did);
  // from_chars does not.
  if (token.size() > 1 && token[0] == '+' &&
      (std::isdigit(static_cast<unsigned char>(token[1])) || token[1] == '.')) {
    ++first;
  }
  const auto [end, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && end == last;
}

void JsonCursor::fail(std::string_view why) const {
  throw ConfigError("JSON parse error at offset " + std::to_string(pos_) + ": " +
                    std::string(why));
}

void JsonCursor::skip_ws() {
  while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
}

char JsonCursor::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

char JsonCursor::take() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_++];
}

void JsonCursor::expect(char c) {
  skip_ws();
  if (take() != c) {
    --pos_;
    fail("unexpected character");
  }
}

void JsonCursor::begin_object() {
  expect('{');
  first_ = true;
}

void JsonCursor::begin_array() {
  expect('[');
  first_ = true;
}

bool JsonCursor::next_key(std::string_view& key) {
  skip_ws();
  if (first_) {
    first_ = false;
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return false;
    }
  } else {
    const char c = take();
    if (c == '}') return false;
    if (c != ',') fail("expected ',' or '}' in object");
    skip_ws();
  }
  if (take() != '"') fail("expected a key");
  read_string(key_);
  key = key_;
  expect(':');
  return true;
}

bool JsonCursor::next_element() {
  skip_ws();
  if (first_) {
    first_ = false;
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return false;
    }
    return true;
  }
  const char c = take();
  if (c == ']') return false;
  if (c != ',') fail("expected ',' or ']' in array");
  return true;
}

std::string_view JsonCursor::number_token() {
  skip_ws();
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  return text_.substr(start, pos_ - start);
}

double JsonCursor::number() {
  double d = 0.0;
  if (!parse_json_number(number_token(), d)) fail("malformed number");
  return d;
}

void JsonCursor::string(std::string& out) {
  skip_ws();
  if (take() != '"') fail("expected a string");
  read_string(out);
}

bool JsonCursor::boolean() {
  skip_ws();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  fail("expected a boolean");
}

void JsonCursor::null() {
  skip_ws();
  if (text_.substr(pos_, 4) != "null") fail("expected 'null'");
  pos_ += 4;
}

void JsonCursor::read_string(std::string& out) {
  out.clear();
  for (;;) {
    // Copy the run up to the next quote or escape in one append.
    const std::size_t stop = text_.find_first_of("\"\\", pos_);
    if (stop == std::string_view::npos) {
      pos_ = text_.size();
      fail("unexpected end of input");
    }
    out.append(text_.data() + pos_, stop - pos_);
    pos_ = stop + 1;
    if (text_[stop] == '"') return;
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
        // UTF-8, basic multilingual plane only.
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
  }
}

void JsonCursor::skip_value() { skip_value(0); }

void JsonCursor::skip_value(int depth) {
  if (depth > kMaxSkipDepth) fail("nesting too deep");
  switch (peek()) {
    case '{': {
      begin_object();
      std::string_view key;
      while (next_key(key)) skip_value(depth + 1);
      return;
    }
    case '[':
      begin_array();
      while (next_element()) skip_value(depth + 1);
      return;
    case '"': {
      std::string scratch;
      string(scratch);
      return;
    }
    case 't':
    case 'f': boolean(); return;
    case 'n': null(); return;
    default: number(); return;
  }
}

void JsonCursor::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after JSON document");
}

// --- files -----------------------------------------------------------------

std::string load_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

Json load_json_file(const std::string& path) { return Json::parse(load_text_file(path)); }

void save_json_file(const std::string& path, const Json& value, int indent) {
  save_json_file(path, JsonText(value.dump(indent)));
}

void save_json_file(const std::string& path, const JsonText& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot write file: " + path);
  out << text.dump() << '\n';
}

}  // namespace anor::util
