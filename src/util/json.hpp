// Minimal JSON value, parser, and serializer.
//
// The cluster-tier manager reads power targets and job-submission schedules
// from files (paper Sec. 4.1); we store those artifacts as JSON.  This is a
// strict subset parser: UTF-8 passthrough, no comments, numbers as double.
//
// Large documents (run results, cache entries, sweep reports) skip the
// tree: JsonWriter streams exactly the bytes Json::dump would print, and
// JsonCursor reads a document token by token.  JsonCursor is the one
// lexer: Json::parse is a small tree builder over it.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace anor::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw ConfigError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object member access; throws ConfigError if not an object or missing.
  const Json& at(const std::string& key) const;
  /// Object member access with default.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  bool contains(const std::string& key) const;

  /// Serialize.  indent < 0 → compact; otherwise pretty with that many
  /// spaces per level.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws ConfigError on syntax errors
  /// or trailing garbage.
  static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

/// `value` as an integer of type T (int, std::uint32_t or std::uint64_t):
/// a number that is finite, integral and inside T's range, else
/// ConfigError naming `key`.
/// Readers of integer fields use it instead of a cast of as_number()
/// (undefined out of range) or of as_int() (which rounds).
template <class T>
T checked_integer(const Json& value, const std::string& key);
/// checked_integer of object member `key`, or `fallback` when it is absent.
template <class T>
T checked_integer_or(const Json& object, const std::string& key, T fallback) {
  return object.contains(key) ? checked_integer<T>(object.at(key), key) : fallback;
}

/// Append `d` as every JSON number is printed: integral values below 1e15
/// as integers, anything else as printf's "%.17g" (which round-trips every
/// double), both produced with std::to_chars.
void append_json_number(std::string& out, double d);
/// Append `s` as a quoted JSON string (UTF-8 passes through).
void append_json_string(std::string& out, std::string_view s);

/// A serialized JSON document.  dump() yields the bytes; on a temporary it
/// moves them out.
class JsonText {
 public:
  JsonText() = default;
  explicit JsonText(std::string text) : text_(std::move(text)) {}

  const std::string& dump() const& { return text_; }
  std::string dump() && { return std::move(text_); }

 private:
  std::string text_;
};

/// Streaming serializer into one string.  The bytes equal Json::dump(indent)
/// of the same tree: ": " after keys and a newline plus indent per level
/// when indented, "[]" / "{}" for empty containers.  Keys must come in
/// std::map (byte) order, as a Json object holds them; key() throws
/// std::logic_error on a key that does not sort after the previous key of
/// its object (or on a key outside an object), so no caller can silently
/// print another order.
class JsonWriter {
 public:
  /// indent < 0 → compact; otherwise that many spaces per level.
  explicit JsonWriter(int indent = -1) : indent_(indent) {}

  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double d);
  /// Integers print through the double path, as Json's integer
  /// constructors store them.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T i) {
    return value(static_cast<double>(i));
  }
  JsonWriter& value(bool b);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  JsonWriter& null();

  /// The document written so far.
  JsonText finish() { return JsonText(std::move(out_)); }

 private:
  /// Separator and indentation before a key or a value.
  void next_item();
  void open(char bracket);
  void close(char bracket);

  /// One open container: whether it is an object, whether it has an
  /// item yet and, for objects, the last key written.
  struct Level {
    bool object = false;
    bool nonempty = false;
    std::string last_key;
  };

  std::string out_;
  int indent_;
  /// levels_[0, depth_) are open; deeper entries are kept so their key
  /// buffers are reused.
  std::vector<Level> levels_;
  std::size_t depth_ = 0;
  bool after_key_ = false;
};

/// Pull reader over one JSON text: whitespace is std::isspace, strings
/// take the JSON escapes (\u only in the basic multilingual plane), and a
/// number token is an optional '-' then characters from [0-9.eE+-].
/// Every call throws ConfigError on malformed input; nothing is
/// materialized beyond what the caller asks for.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// The first character of the next value, not consumed.
  char peek();

  /// Consume '{'; then next_key() until it returns false (at '}').
  void begin_object();
  /// The next member's key (valid until the next call), positioned at
  /// its value; false once the object closes.
  bool next_key(std::string_view& key);
  /// Consume '['; then next_element() until it returns false (at ']').
  void begin_array();
  bool next_element();

  /// The next number token, unconverted (it may be malformed).
  std::string_view number_token();
  /// The next number, converted with parse_json_number.
  double number();
  void string(std::string& out);
  bool boolean();
  void null();
  /// Validate and discard one value of any type.
  void skip_value();
  /// Only whitespace may follow the document.
  void finish();

  /// Throw ConfigError naming the current offset.
  [[noreturn]] void fail(std::string_view why) const;

  /// Walk one object by field: the first occurrence of keys[i] is handed
  /// to read(i), which must consume its value; unknown and repeated keys
  /// are skipped (Json::parse keeps the first of duplicate keys).  Throws
  /// when a key whose bit is set in `required` never appears.
  template <std::size_t N, class Read>
  void read_object(const std::array<std::string_view, N>& keys, std::uint32_t required,
                   Read&& read) {
    static_assert(N <= 32);
    begin_object();
    std::uint32_t seen = 0;
    std::string_view key;
    while (next_key(key)) {
      std::size_t i = 0;
      while (i < N && keys[i] != key) ++i;
      if (i == N || (seen >> i & 1u) != 0) {
        skip_value();
        continue;
      }
      seen |= 1u << i;
      read(i);
    }
    if ((seen & required) != required) fail("missing a required key");
  }

 private:
  void skip_ws();
  char take();
  void expect(char c);
  void read_string(std::string& out);
  void skip_value(int depth);

  std::string_view text_;
  std::size_t pos_ = 0;
  /// Set by begin_object/begin_array, cleared by the first next_key/
  /// next_element.  One flag suffices: a nested container is always
  /// walked (so its flag cleared) before its parent's next item.
  bool first_ = false;
  std::string key_;
};

/// Parse one number token, the rule of both readers (Json::parse and
/// JsonCursor::number): std::from_chars over the whole token, after an
/// optional leading '+'.  Subnormals read exactly; a value that overflows,
/// or underflows to zero, does not read.  False when the token is not a
/// complete, in-range number.
bool parse_json_number(std::string_view token, double& out);

/// Read/write whole files; throw ConfigError on I/O failure.
Json load_json_file(const std::string& path);
std::string load_text_file(const std::string& path);
void save_json_file(const std::string& path, const Json& value, int indent = 2);
/// Write serialized text plus the trailing newline save_json_file adds.
void save_json_file(const std::string& path, const JsonText& text);

}  // namespace anor::util
