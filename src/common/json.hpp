// Minimal JSON document model: parse, build, serialize.
//
// Exists so the observability layer (metrics snapshots, run manifests,
// BENCH_*.json perf reports) can speak one machine-readable format without
// an external dependency. Deliberately small: the six JSON types, a
// recursive-descent parser, and a writer with deterministic formatting —
// object keys keep insertion order, integral numbers print without a
// decimal point, and non-integral doubles print with "%.17g" (round-trip
// exact), so semantically identical documents serialize byte-identically.
// That determinism is load-bearing: golden-snapshot tests compare metrics
// JSON across DSEM_THREADS settings as strings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dsem::json {

/// Deepest container nesting Value::parse accepts. The parser recurses
/// once per level, so the bound keeps a hostile file from exhausting the
/// stack; every document this repo writes nests fewer than 10 levels.
inline constexpr int kMaxDepth = 256;

class Value {
public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Value>;
  /// Insertion-ordered (not sorted): writers control field order, and the
  /// serialized form stays stable across parse/serialize round trips.
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default; // null
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double n) : type_(Type::kNumber), number_(n) {}
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Value(T n) : Value(static_cast<double>(n)) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}

  static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; DSEM_ENSURE on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Array append (value must be an array).
  void push_back(Value v);

  /// Object field set: overwrites an existing key in place, appends
  /// otherwise. Value must be an object.
  void set(std::string key, Value v);

  /// Object lookup: nullptr when absent (value must be an object).
  const Value* find(std::string_view key) const;
  Value* find(std::string_view key);
  /// Object lookup; DSEM_ENSURE when absent.
  const Value& at(std::string_view key) const;
  Value& at(std::string_view key);

  /// Serializes. indent < 0 emits the compact single-line form; indent
  /// >= 0 pretty-prints with that many spaces per nesting level.
  void write(std::ostream& os, int indent = -1) const;
  std::string dump(int indent = -1) const;

  /// Parses one JSON document (throws dsem::contract_error with position
  /// info on malformed input; trailing non-whitespace is an error).
  /// Containers nested deeper than kMaxDepth are rejected the same way.
  static Value parse(std::string_view text);

  bool operator==(const Value&) const = default;

private:
  void write_impl(std::ostream& os, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Appends the JSON string-escape of `s` (no surrounding quotes) to `os`.
void escape(std::ostream& os, std::string_view s);

/// Pretty-prints `value` to `path` with a trailing newline (throws
/// contract_error naming the path on I/O failure).
void write_file(const std::string& path, const Value& value);

} // namespace dsem::json
