// Minimal JSON document model and its two streaming halves: a Writer
// that formats and a Reader that tokenizes.
//
// Exists so the observability layer (metrics snapshots, run manifests,
// BENCH_*.json perf reports) and the model artifacts can speak one
// machine-readable format without an external dependency. Deliberately
// small: the six JSON types, one pull Reader and one Writer with
// deterministic formatting — object keys keep insertion order, integral
// numbers below 2^53 print as int64, and every other double prints as
// printf("%.17g") would (round-trip exact), so semantically identical
// documents serialize byte-identically. That determinism is load-bearing:
// golden-snapshot tests compare metrics JSON across DSEM_THREADS settings
// as strings. The "%.17g" text comes from std::to_chars(general, 17),
// which the standard defines to match it; tests/common/json_test.cpp pins
// it against snprintf.
//
// Writer is the only formatter and Reader the only tokenizer. Value::dump
// and write_file are the Writer's clients, Value::parse and read_file the
// Reader's: Value::parse is a loop over Reader tokens, which replaced the
// recursive-descent parser. Large documents stream through both halves
// straight from and into their own structs without building a Value: the
// ledger export, the Chrome trace and the model artifacts
// (serve/artifact.hpp) are written that way, and artifacts are read that
// way. write_file and read_file are the only ways a document crosses a
// file boundary.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dsem::json {

/// Deepest container nesting a Reader accepts; deeper raises
/// contract_error. The reader keeps one entry per open container, so the
/// bound keeps a hostile file from growing that stack without limit;
/// every document this repo writes nests fewer than 10 levels.
inline constexpr int kMaxDepth = 256;

class Reader;

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
  /// Containers nested deeper than kMaxDepth, and a key repeated within
  /// one object, are rejected the same way.
  static Value parse(std::string_view text);

  /// Reads the next value from `in` into a document, containers whole.
  /// A loop over the reader's tokens with one open container per level.
  static Value read(Reader& in);

  bool operator==(const Value&) const = default;

private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

namespace detail {
/// Raises contract_error: `number`, read as `what`, is not an integer
/// that fits the requested type.
[[noreturn]] void bad_integer(std::string_view what, double number);
} // namespace detail

/// The integer a JSON number holds, as T: how every integer field read
/// from a file leaves its double, whether from a Value or straight from
/// Reader::read_number. Raises contract_error naming `what` when the value
/// is not a number, not finite, fractional, or outside T's range. A bare
/// static_cast skips these checks, and for an out-of-range value (3e9
/// into int32, 1e999 into anything) it is undefined behaviour.
template <typename T> T as_integer(double d, std::string_view what) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  // Both bounds are exact doubles: min is 0 or -2^k, and max + 1 is 2^k.
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  // In range the cast is defined; it truncates, so a fraction shows.
  if (!(d >= lo && d < hi) || static_cast<double>(static_cast<T>(d)) != d) {
    detail::bad_integer(what, d);
  }
  return static_cast<T>(d);
}

template <typename T>
T as_integer(const Value& value, std::string_view what) {
  return as_integer<T>(value.as_number(), what);
}

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

/// Pull parser over one in-memory document: the one JSON tokenizer. The
/// caller asks for what it expects next (a number, a string, an object's
/// next key, an array's next element) and the reader checks the syntax
/// as it goes, so a document can be read straight into its own structs
/// without building a Value. Every syntax error raises contract_error as
/// "json parse error at offset N: ...", N the byte offset in the text.
///
/// Numbers follow the RFC 8259 grammar: "+5", ".5", "01", "1." and "1.e5"
/// are rejected. A number too large for a double (1e999) is rejected; one
/// too small (1e-400) reads as a zero of its sign, and subnormals are
/// kept, as strtod gives them. Containers may nest kMaxDepth levels.
///
/// The text must outlive the reader; a key it returns stays valid until
/// the next call.
class Reader {
public:
  /// What the next value is, judged by its first byte. A byte that starts
  /// no value reads as kNumber, whose read then reports it.
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  explicit Reader(std::string_view text) noexcept
      : begin_(text.data()), cur_(text.data()),
        end_(text.data() + text.size()) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// The next value's kind, without consuming it; raises at end of input.
  Kind peek();

  /// Typed reads of the next value; each raises unless the value has
  /// that kind.
  void read_null();
  bool read_bool();
  double read_number();
  std::string read_string();

  /// Opens an object; next_key() then steps through its fields.
  void begin_object();
  /// Steps to the innermost open object's next key: true with `key` set
  /// (the reader then stands at its value, which the caller must read or
  /// skip), false once its closing brace is consumed.
  bool next_key(std::string_view& key);
  /// Opens an array; next_element() then steps through its elements.
  void begin_array();
  /// Steps to the innermost open array's next element: true with the
  /// reader at it, false once its closing bracket is consumed.
  bool next_element();

  /// Reads past the next value, whole containers included, checking its
  /// syntax on the way.
  void skip();
  /// skip() that returns the skipped value's text, for a field that can
  /// only be read once a later field is known.
  std::string_view raw_value();

  /// Reads one object, calling field(key) for each of its keys in
  /// document order with the reader at the key's value, which `field`
  /// must read or skip. A key repeated within the object raises
  /// contract_error.
  template <typename F> void read_object(F&& field) {
    begin_object();
    std::vector<std::string> seen;
    std::string_view key;
    while (next_key(key)) {
      for (const std::string& earlier : seen) {
        if (earlier == key) {
          fail("repeated key \"" + earlier + "\"");
        }
      }
      seen.emplace_back(key);
      field(std::string_view(seen.back()));
    }
  }

  /// Checks that nothing but whitespace follows the document.
  void finish();

  /// Raises contract_error "json parse error at offset N: what" at the
  /// current position.
  [[noreturn]] void fail(const std::string& what) const;

private:
  void skip_whitespace() noexcept;
  /// The next byte after whitespace; raises at end of input.
  char next_byte();
  [[noreturn]] void fail_at(const char* at, const std::string& what) const;
  void open(char bracket);
  /// One step through the innermost open container (`close` its closing
  /// bracket): false once that bracket is consumed.
  bool next_in(char close);
  void expect_literal(std::string_view literal);
  /// Decodes the string at cur_ (its opening quote) into a view of the
  /// text when it holds no escape, else of scratch_.
  std::string_view string_token();
  unsigned hex4();

  const char* begin_;
  const char* cur_;
  const char* end_;
  /// Per open container, innermost last: its closing bracket.
  std::vector<char> open_;
  /// Whether the innermost open container has had no element yet.
  bool first_ = false;
  std::string scratch_;
};

/// Raises contract_error "json: missing key: <key>", what Value::at says
/// of an absent field: for readers that check required fields once an
/// object is read.
[[noreturn]] void missing_key(std::string_view key);

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

/// Reads the document at `path` through `consume`, the mirror of
/// write_file. `path` must name a regular file (a symlink is followed): a
/// directory, FIFO, device or missing path raises contract_error naming
/// the path before any byte is read, so `/dev/zero` or a pipe cannot make
/// the read grow without bound. The file is read once into a string sized
/// from the file; `consume` reads one value from a Reader over it, and
/// anything but whitespace after that value is an error. An I/O or parse
/// failure raises contract_error.
void read_file(const std::string& path,
               const std::function<void(Reader&)>& consume);
/// The document at `path` as a Value (Value::read through read_file).
Value read_file(const std::string& path);

} // namespace dsem::json
