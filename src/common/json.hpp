// Minimal JSON document model and streaming writer: parse, build,
// serialize.
//
// Exists so the observability layer (metrics snapshots, run manifests,
// BENCH_*.json perf reports) can speak one machine-readable format without
// an external dependency. Deliberately small: the six JSON types, a
// recursive-descent parser, and one Writer with deterministic formatting —
// object keys keep insertion order, integral numbers below 2^53 print as
// int64, and every other double prints as printf("%.17g") would (round-
// trip exact), so semantically identical documents serialize
// byte-identically. That determinism is load-bearing: golden-snapshot
// tests compare metrics JSON across DSEM_THREADS settings as strings.
// The "%.17g" text comes from std::to_chars(general, 17), which the
// standard defines to match it; tests/common/json_test.cpp pins it
// against snprintf.
//
// Writer is the only formatter. Value::dump and write_file are its
// clients, and large documents (the ledger export, the Chrome trace)
// stream through it straight from their own structs without building a
// Value. write_file and read_file are the only ways a document crosses a
// file boundary.
#pragma once

#include <cstdint>
#include <functional>
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
  std::string dump(int indent = -1) const;

  /// Parses one JSON document (throws dsem::contract_error with position
  /// info on malformed input; trailing non-whitespace is an error).
  /// Containers nested deeper than kMaxDepth are rejected the same way.
  static Value parse(std::string_view text);

  bool operator==(const Value&) const = default;

private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Destination of a Writer's bytes, handed over in chunks of about
/// Writer::kChunkBytes.
class Sink {
public:
  virtual ~Sink() = default;
  virtual void append(std::string_view bytes) = 0;
};

/// Appends to a caller-owned string.
class StringSink final : public Sink {
public:
  explicit StringSink(std::string& out) : out_(&out) {}
  void append(std::string_view bytes) override { out_->append(bytes); }

private:
  std::string* out_;
};

/// Folds the bytes into a running 64-bit FNV-1a hash.
class Fnv1aSink final : public Sink {
public:
  void append(std::string_view bytes) override;
  std::uint64_t digest() const noexcept { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Streaming serializer: appends tokens to a buffer and hands it to the
/// sink whenever it passes kChunkBytes. indent < 0 emits the compact
/// layout; indent >= 0 puts every element on its own line, indented
/// that many spaces per nesting level, with ": " after keys.
/// Consecutive top-level values are written back to back. Non-finite
/// numbers raise contract_error. Call flush() once the document is
/// complete; a writer destroyed unflushed drops its buffered tail.
class Writer {
public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  explicit Writer(Sink& sink, int indent = -1);
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// Object key; the next call writes its value.
  Writer& key(std::string_view name);

  Writer& null();
  Writer& value(bool b);
  Writer& value(double n);
  /// Integers go through double, like Value's integral constructor.
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Writer& value(T n) {
    return value(static_cast<double>(n));
  }
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(const std::string& s) { return value(std::string_view(s)); }
  Writer& value(const Value& v);

  /// Hands every buffered byte to the sink.
  void flush();

private:
  /// Room for `bytes` more bytes at the end of the buffer, after handing
  /// a full chunk to the sink.
  char* reserve(std::size_t bytes);
  /// Writes the separator (comma, newline, indent) an element needs and
  /// returns where its `token_bytes` (at most) go.
  char* begin_element(std::size_t token_bytes);
  char* newline(char* out, std::size_t depth) const;
  Writer& commit(char* end) {
    used_ = static_cast<std::size_t>(end - buffer_.data());
    return *this;
  }
  Writer& open(char bracket);
  Writer& close(char bracket);

  Sink* sink_;
  int indent_;
  std::vector<char> buffer_;
  std::size_t used_ = 0;
  std::vector<bool> open_; ///< per open container: has an element yet
  bool after_key_ = false;
};

/// Appends the JSON string-escape of `s` (no surrounding quotes) to `os`;
/// the same escape the Writer applies to keys and strings. Nothing in the
/// library formats JSON through an ostream; this stays only for the
/// benchmark package's span exporter (dsem_bench/spans.cpp).
void escape(std::ostream& os, std::string_view s);

/// Pretty-prints the document `emit` writes to `path` with a trailing
/// newline. `path` must be a regular file or absent (contract_error
/// otherwise); a symlink is followed to the file it names. The bytes go
/// to that file's name plus ".tmp", which is renamed over it only once
/// the whole document is written, so the file is replaced, not
/// rewritten in place: its permissions and hard links are not kept. On
/// any failure (a non-finite number, an I/O error) the temp is removed,
/// the file is left as it was, and contract_error propagates. Two
/// concurrent writers to one path share the temp name; that is not
/// supported.
void write_file(const std::string& path,
                const std::function<void(Writer&)>& emit);
void write_file(const std::string& path, const Value& value);

/// Reads and parses the document at `path`, the mirror of write_file.
/// `path` must name a regular file (a symlink is followed): a directory,
/// FIFO, device or missing path raises contract_error naming the path
/// before any byte is read, so `/dev/zero` or a pipe cannot make the read
/// grow without bound. The file is read once into a string sized from
/// the file and parsed by Value::parse (its kMaxDepth bound included); an
/// I/O or parse failure raises contract_error.
Value read_file(const std::string& path);

} // namespace dsem::json
