#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <ostream>

#include "common/error.hpp"

namespace dsem::json {

bool Value::as_bool() const {
  DSEM_ENSURE(type_ == Type::kBool, "json: not a bool");
  return bool_;
}

double Value::as_number() const {
  DSEM_ENSURE(type_ == Type::kNumber, "json: not a number");
  return number_;
}

void detail::bad_integer(std::string_view what, double number) {
  char text[32];
  const auto end = std::to_chars(text, text + sizeof text, number).ptr;
  throw contract_error(std::string(what) + ": " +
                       std::string(text, end) +
                       " is not an integer in range");
}

const std::string& Value::as_string() const {
  DSEM_ENSURE(type_ == Type::kString, "json: not a string");
  return string_;
}

const Value::Array& Value::as_array() const {
  DSEM_ENSURE(type_ == Type::kArray, "json: not an array");
  return array_;
}

Value::Array& Value::as_array() {
  DSEM_ENSURE(type_ == Type::kArray, "json: not an array");
  return array_;
}

const Value::Object& Value::as_object() const {
  DSEM_ENSURE(type_ == Type::kObject, "json: not an object");
  return object_;
}

Value::Object& Value::as_object() {
  DSEM_ENSURE(type_ == Type::kObject, "json: not an object");
  return object_;
}

void Value::push_back(Value v) { as_array().push_back(std::move(v)); }

void Value::set(std::string key, Value v) {
  Object& fields = as_object();
  for (auto& [k, existing] : fields) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  fields.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Value* Value::find(std::string_view key) {
  return const_cast<Value*>(std::as_const(*this).find(key));
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  DSEM_ENSURE(v != nullptr, "json: missing key: " + std::string(key));
  return *v;
}

Value& Value::at(std::string_view key) {
  Value* v = find(key);
  DSEM_ENSURE(v != nullptr, "json: missing key: " + std::string(key));
  return *v;
}

void Fnv1aSink::append(std::string_view bytes) {
  std::uint64_t h = hash_;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  hash_ = h;
}

namespace {

/// Longest escape of one input byte ("\u00XX").
constexpr std::size_t kMaxEscape = 6;

/// Writes the JSON string-escape of `s` at `out`, which needs
/// kMaxEscape * s.size() bytes. Returns the end of the text.
char* escape_to(char* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c != '"' && c != '\\') {
      *out++ = ch;
      continue;
    }
    *out++ = '\\';
    switch (c) {
    case '"':
    case '\\':
      *out++ = ch;
      break;
    case '\n':
      *out++ = 'n';
      break;
    case '\t':
      *out++ = 't';
      break;
    case '\r':
      *out++ = 'r';
      break;
    default:
      std::memcpy(out, "u00", 3);
      out[3] = kHex[c >> 4];
      out[4] = kHex[c & 0xf];
      out += 5;
    }
  }
  return out;
}

/// Longest number text: "-1.2345678901234567e-308" is 24 bytes.
constexpr std::size_t kMaxNumber = 32;

/// The one number format: integral values below 2^53 in magnitude as
/// int64 (counts, iteration totals), everything else as "%.17g"
/// (round-trip exact), which to_chars(general, 17) is defined to match.
/// out needs kMaxNumber bytes.
char* format_number(char* out, double n) {
  constexpr double kExactIntLimit = 9007199254740992.0; // 2^53
  if (std::abs(n) < kExactIntLimit) {
    const auto integral = static_cast<long long>(n);
    if (static_cast<double>(integral) == n) {
      return std::to_chars(out, out + kMaxNumber, integral).ptr;
    }
  }
  return std::to_chars(out, out + kMaxNumber, n, std::chars_format::general,
                       17)
      .ptr;
}

} // namespace

void escape(std::ostream& os, std::string_view s) {
  std::string out(kMaxEscape * s.size(), '\0');
  out.resize(static_cast<std::size_t>(escape_to(out.data(), s) - out.data()));
  os << out;
}

Writer::Writer(Sink& sink, int indent) : sink_(&sink), indent_(indent) {}

char* Writer::reserve(std::size_t bytes) {
  if (used_ >= kChunkBytes) {
    flush();
  }
  if (used_ + bytes > buffer_.size()) {
    buffer_.resize(std::max(2 * buffer_.size(), used_ + bytes));
  }
  return buffer_.data() + used_;
}

char* Writer::begin_element(std::size_t token_bytes) {
  const std::size_t depth = open_.size();
  const auto pad = static_cast<std::size_t>(std::max(indent_, 0)) * depth;
  char* out = reserve(token_bytes + 2 + pad);
  if (after_key_) {
    after_key_ = false;
    return out;
  }
  if (depth == 0) {
    return out; // a top-level value
  }
  if (open_.back()) {
    *out++ = ',';
  }
  open_.back() = true;
  return indent_ >= 0 ? newline(out, depth) : out;
}

char* Writer::newline(char* out, std::size_t depth) const {
  *out++ = '\n';
  const std::size_t pad = static_cast<std::size_t>(indent_) * depth;
  std::memset(out, ' ', pad);
  return out + pad;
}

Writer& Writer::open(char bracket) {
  char* out = begin_element(1);
  *out++ = bracket;
  open_.push_back(false);
  return commit(out);
}

Writer& Writer::close(char bracket) {
  DSEM_ENSURE(!open_.empty() && !after_key_, "json: unbalanced container");
  const bool had_elements = open_.back();
  open_.pop_back();
  const std::size_t depth = open_.size();
  const auto pad = static_cast<std::size_t>(std::max(indent_, 0)) * depth;
  char* out = reserve(2 + pad);
  if (had_elements && indent_ >= 0) {
    out = newline(out, depth);
  }
  *out++ = bracket;
  return commit(out);
}

Writer& Writer::key(std::string_view name) {
  char* out = begin_element(kMaxEscape * name.size() + 4);
  *out++ = '"';
  out = escape_to(out, name);
  *out++ = '"';
  *out++ = ':';
  if (indent_ >= 0) {
    *out++ = ' ';
  }
  after_key_ = true;
  return commit(out);
}

Writer& Writer::null() {
  char* out = begin_element(4);
  std::memcpy(out, "null", 4);
  return commit(out + 4);
}

Writer& Writer::value(bool b) {
  char* out = begin_element(5);
  const std::string_view text = b ? "true" : "false";
  std::memcpy(out, text.data(), text.size());
  return commit(out + text.size());
}

Writer& Writer::value(double n) {
  DSEM_ENSURE(std::isfinite(n), "json: cannot serialize a non-finite number");
  return commit(format_number(begin_element(kMaxNumber), n));
}

Writer& Writer::value(std::string_view s) {
  char* out = begin_element(kMaxEscape * s.size() + 2);
  *out++ = '"';
  out = escape_to(out, s);
  *out++ = '"';
  return commit(out);
}

Writer& Writer::value(const Value& v) {
  switch (v.type()) {
  case Value::Type::kNull:
    return null();
  case Value::Type::kBool:
    return value(v.as_bool());
  case Value::Type::kNumber:
    return value(v.as_number());
  case Value::Type::kString:
    return value(std::string_view(v.as_string()));
  case Value::Type::kArray:
    begin_array();
    for (const Value& element : v.as_array()) {
      value(element);
    }
    return end_array();
  case Value::Type::kObject:
    begin_object();
    for (const auto& [name, field] : v.as_object()) {
      key(name).value(field);
    }
    return end_object();
  }
  return *this;
}

void Writer::flush() {
  if (used_ > 0) {
    sink_->append(std::string_view(buffer_.data(), used_));
    used_ = 0;
  }
}

namespace {

/// Recursive-descent parser over a string_view with position tracking.
class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_whitespace();
    DSEM_ENSURE(pos_ == text_.size(),
                "json: trailing characters at offset " + std::to_string(pos_));
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& what) const {
    throw contract_error("json parse error at offset " + std::to_string(pos_) +
                         ": " + what);
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_whitespace();
    switch (peek()) {
    case '{':
    case '[':
      return parse_nested();
    case '"':
      return Value(parse_string());
    case 't':
      if (consume_literal("true")) {
        return Value(true);
      }
      fail("invalid literal");
    case 'f':
      if (consume_literal("false")) {
        return Value(false);
      }
      fail("invalid literal");
    case 'n':
      if (consume_literal("null")) {
        return Value();
      }
      fail("invalid literal");
    default:
      return parse_number();
    }
  }

  /// Enters one container level; fails past kMaxDepth before recursing,
  /// so hostile nesting cannot exhaust the stack.
  Value parse_nested() {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    Value out = peek() == '{' ? parse_object() : parse_array();
    --depth_;
    return out;
  }

  Value parse_object() {
    expect('{');
    Value out = Value::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      out.as_object().emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = next();
      if (c == '}') {
        return out;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Value out = Value::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      skip_whitespace();
      const char c = next();
      if (c == ']') {
        return out;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid \\u escape");
      }
    }
    return cp;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = next();
      switch (esc) {
      case '"':
      case '\\':
      case '/':
        out += esc;
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        unsigned cp = parse_hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: must be followed by \uDC00-\uDFFF.
          expect('\\');
          expect('u');
          const unsigned lo = parse_hex4();
          if (lo < 0xDC00 || lo > 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          fail("unpaired surrogate in \\u escape");
        }
        append_utf8(out, cp);
        break;
      }
      default:
        --pos_;
        fail("invalid escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' || !std::isfinite(v)) {
      pos_ = start;
      fail("invalid number");
    }
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0; ///< containers currently open
};

} // namespace

std::string Value::dump(int indent) const {
  std::string out;
  StringSink sink(out);
  Writer writer(sink, indent);
  writer.value(*this);
  writer.flush();
  return out;
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

namespace {

/// Buffered file output that reports every failure as contract_error.
class FileSink final : public Sink {
public:
  explicit FileSink(std::string path)
      : path_(std::move(path)), file_(std::fopen(path_.c_str(), "wb")) {
    DSEM_ENSURE(file_ != nullptr, "cannot open output file: " + path_);
  }
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;
  ~FileSink() override {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }

  void append(std::string_view bytes) override {
    DSEM_ENSURE(std::fwrite(bytes.data(), 1, bytes.size(), file_) ==
                    bytes.size(),
                "failed writing output file: " + path_);
  }

  void close() {
    const int rc = std::fclose(file_);
    file_ = nullptr;
    DSEM_ENSURE(rc == 0, "failed writing output file: " + path_);
  }

private:
  std::string path_;
  std::FILE* file_;
};

} // namespace

void write_file(const std::string& path,
                const std::function<void(Writer&)>& emit) {
  namespace fs = std::filesystem;
  std::error_code error;
  const fs::file_status status = fs::status(path, error);
  DSEM_ENSURE(!fs::exists(status) || fs::is_regular_file(status),
              "output path is not a regular file: " + path);
  // Resolve symlinks, so the rename replaces the file a link points to
  // and leaves the link itself in place.
  const fs::path target = fs::weakly_canonical(path, error);
  DSEM_ENSURE(!error, "cannot resolve output path: " + path);
  const std::string temp = target.string() + ".tmp";
  try {
    FileSink sink(temp);
    Writer writer(sink, 2);
    emit(writer);
    writer.flush();
    sink.append("\n");
    sink.close();
    DSEM_ENSURE(std::rename(temp.c_str(), target.c_str()) == 0,
                "cannot replace output file: " + path);
  } catch (...) {
    std::remove(temp.c_str());
    throw;
  }
}

void write_file(const std::string& path, const Value& value) {
  write_file(path, [&](Writer& writer) { writer.value(value); });
}

Value read_file(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code error;
  DSEM_ENSURE(fs::is_regular_file(fs::status(path, error)),
              "input path is not a regular file: " + path);
  const std::uintmax_t size = fs::file_size(path, error);
  DSEM_ENSURE(!error, "cannot size input file: " + path);
  std::string text(static_cast<std::size_t>(size), '\0');
  std::FILE* file = std::fopen(path.c_str(), "rb");
  DSEM_ENSURE(file != nullptr, "cannot open input file: " + path);
  const std::size_t read = std::fread(text.data(), 1, text.size(), file);
  std::fclose(file);
  DSEM_ENSURE(read == text.size(), "failed reading input file: " + path);
  return Value::parse(text);
}

} // namespace dsem::json
