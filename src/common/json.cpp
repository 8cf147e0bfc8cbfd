#include "common/json.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
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

void missing_key(std::string_view key) {
  throw contract_error("json: missing key: " + std::string(key));
}

namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Bytes that may continue a number token: one that follows a complete
/// number ("01", "1.", "1e5e5") makes the whole token invalid.
bool is_number_byte(char c) noexcept {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

const char* skip_digits(const char* p, const char* end) noexcept {
  while (p != end && is_digit(*p)) {
    ++p;
  }
  return p;
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

} // namespace

void Reader::fail(const std::string& what) const { fail_at(cur_, what); }

void Reader::fail_at(const char* at, const std::string& what) const {
  throw contract_error("json parse error at offset " +
                       std::to_string(at - begin_) + ": " + what);
}

void Reader::skip_whitespace() noexcept {
  // A pretty-printed document is mostly indentation, so runs of spaces
  // are skipped eight bytes at a time: the lowest byte that is not a
  // space ends the run.
  constexpr std::uint64_t kSpaces = 0x2020202020202020ULL;
  while (cur_ != end_) {
    if (std::endian::native == std::endian::little && end_ - cur_ >= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, cur_, sizeof word);
      const std::uint64_t other = word ^ kSpaces;
      if (other == 0) {
        cur_ += 8;
        continue;
      }
      cur_ += std::countr_zero(other) / 8;
    }
    const char c = *cur_;
    if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
      return;
    }
    ++cur_;
  }
}

char Reader::next_byte() {
  skip_whitespace();
  if (cur_ == end_) {
    fail("unexpected end of input");
  }
  return *cur_;
}

Reader::Kind Reader::peek() {
  switch (next_byte()) {
  case '{':
    return Kind::kObject;
  case '[':
    return Kind::kArray;
  case '"':
    return Kind::kString;
  case 't':
  case 'f':
    return Kind::kBool;
  case 'n':
    return Kind::kNull;
  default:
    return Kind::kNumber;
  }
}

void Reader::expect_literal(std::string_view literal) {
  if (static_cast<std::size_t>(end_ - cur_) < literal.size() ||
      std::memcmp(cur_, literal.data(), literal.size()) != 0) {
    fail("invalid literal");
  }
  cur_ += literal.size();
}

void Reader::read_null() {
  if (next_byte() != 'n') {
    fail("expected null");
  }
  expect_literal("null");
}

bool Reader::read_bool() {
  const char c = next_byte();
  if (c != 't' && c != 'f') {
    fail("expected true or false");
  }
  expect_literal(c == 't' ? "true" : "false");
  return c == 't';
}

double Reader::read_number() {
  const char c = next_byte();
  if (c == '"' || c == '{' || c == '[' || c == 't' || c == 'f' || c == 'n') {
    fail("expected a number");
  }
  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  const char* const start = cur_;
  const char* p = start;
  const bool negative = *p == '-';
  p += negative ? 1 : 0;
  const char* const int_begin = p;
  if (p == end_ || !is_digit(*p)) {
    fail_at(start, "invalid number");
  }
  p = *p == '0' ? p + 1 : skip_digits(p, end_);
  const char* const int_end = p;
  const char* frac_end = p;
  if (p != end_ && *p == '.') {
    ++p;
    if (p == end_ || !is_digit(*p)) {
      fail_at(start, "invalid number");
    }
    p = frac_end = skip_digits(p, end_);
  }
  long exponent = 0; // saturates: only its sign matters past the range
  if (p != end_ && (*p == 'e' || *p == 'E')) {
    ++p;
    const bool negative_exponent = p != end_ && *p == '-';
    if (p != end_ && (*p == '+' || *p == '-')) {
      ++p;
    }
    if (p == end_ || !is_digit(*p)) {
      fail_at(start, "invalid number");
    }
    for (; p != end_ && is_digit(*p); ++p) {
      exponent = std::min(exponent * 10 + (*p - '0'), 1'000'000'000L);
    }
    exponent = negative_exponent ? -exponent : exponent;
  }
  if (p != end_ && is_number_byte(*p)) {
    fail_at(start, "invalid number");
  }
  double value = 0.0;
  const auto [parsed_end, error] = std::from_chars(start, p, value);
  if (error == std::errc::result_out_of_range) {
    // from_chars reports overflow and underflow alike and leaves `value`
    // alone, so tell them apart from the text: the magnitude is at least
    // 1 exactly when the first significant digit sits left of the point
    // once the exponent is applied.
    long lead = 0; // decimal exponent of that digit, plus one
    const char* digit = int_begin;
    for (; digit != int_end && *digit == '0'; ++digit) {
    }
    if (digit != int_end) {
      lead = static_cast<long>(int_end - digit);
    } else {
      for (digit = int_end + 1; digit < frac_end && *digit == '0'; ++digit) {
      }
      lead = -static_cast<long>(digit - (int_end + 1));
    }
    if (lead + exponent > 0) {
      fail_at(start, "number out of range");
    }
    value = negative ? -0.0 : 0.0; // below the smallest subnormal
  } else if (error != std::errc() || parsed_end != p) {
    fail_at(start, "invalid number");
  }
  cur_ = p;
  return value;
}

unsigned Reader::hex4() {
  unsigned cp = 0;
  for (int i = 0; i < 4; ++i, ++cur_) {
    if (cur_ == end_) {
      fail("unexpected end of input");
    }
    const char c = *cur_;
    cp <<= 4;
    if (is_digit(c)) {
      cp |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      cp |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      cp |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      fail("invalid \\u escape");
    }
  }
  return cp;
}

std::string_view Reader::string_token() {
  ++cur_; // the opening quote
  const char* const start = cur_;
  // Fast path: no escape before the closing quote.
  for (; cur_ != end_; ++cur_) {
    const auto c = static_cast<unsigned char>(*cur_);
    if (c == '"') {
      return std::string_view(start, static_cast<std::size_t>(cur_++ - start));
    }
    if (c == '\\') {
      break;
    }
    if (c < 0x20) {
      fail("unescaped control character in string");
    }
  }
  scratch_.assign(start, cur_);
  for (;;) {
    if (cur_ == end_) {
      fail("unexpected end of input");
    }
    const char c = *cur_++;
    if (c == '"') {
      return scratch_;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      --cur_;
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    if (cur_ == end_) {
      fail("unexpected end of input");
    }
    const char esc = *cur_++;
    switch (esc) {
    case '"':
    case '\\':
    case '/':
      scratch_ += esc;
      break;
    case 'b':
      scratch_ += '\b';
      break;
    case 'f':
      scratch_ += '\f';
      break;
    case 'n':
      scratch_ += '\n';
      break;
    case 'r':
      scratch_ += '\r';
      break;
    case 't':
      scratch_ += '\t';
      break;
    case 'u': {
      unsigned cp = hex4();
      if (cp >= 0xD800 && cp <= 0xDBFF) {
        // High surrogate: must be followed by \uDC00-\uDFFF.
        if (end_ - cur_ < 2 || cur_[0] != '\\' || cur_[1] != 'u') {
          fail("unpaired surrogate in \\u escape");
        }
        cur_ += 2;
        const unsigned lo = hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) {
          fail("unpaired surrogate in \\u escape");
        }
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
        fail("unpaired surrogate in \\u escape");
      }
      append_utf8(scratch_, cp);
      break;
    }
    default:
      --cur_;
      fail("invalid escape sequence");
    }
  }
}

std::string Reader::read_string() {
  if (next_byte() != '"') {
    fail("expected a string");
  }
  return std::string(string_token());
}

void Reader::open(char bracket) {
  if (next_byte() != bracket) {
    fail(std::string("expected '") + bracket + "'");
  }
  if (open_.size() >= static_cast<std::size_t>(kMaxDepth)) {
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
  ++cur_;
  open_.push_back(bracket == '{' ? '}' : ']');
  first_ = true;
}

void Reader::begin_object() { open('{'); }

void Reader::begin_array() { open('['); }

bool Reader::next_in(char close) {
  DSEM_ENSURE(!open_.empty() && open_.back() == close,
              "json: reader stepped outside its container");
  const char c = next_byte();
  if (c == close) {
    ++cur_;
    open_.pop_back();
    first_ = false; // the enclosing container now has this element
    return false;
  }
  if (first_) {
    first_ = false;
    return true;
  }
  if (c != ',') {
    fail(close == '}' ? "expected ',' or '}' in object"
                      : "expected ',' or ']' in array");
  }
  ++cur_;
  return true;
}

bool Reader::next_key(std::string_view& key) {
  if (!next_in('}')) {
    return false;
  }
  if (next_byte() != '"') {
    fail("expected a string");
  }
  key = string_token();
  if (next_byte() != ':') {
    fail("expected ':'");
  }
  ++cur_;
  return true;
}

bool Reader::next_element() { return next_in(']'); }

void Reader::skip() {
  const std::size_t depth = open_.size();
  std::string_view key;
  do {
    if (open_.size() > depth &&
        !(open_.back() == '}' ? next_key(key) : next_element())) {
      continue; // a container this skip opened just closed
    }
    switch (peek()) {
    case Kind::kObject:
      begin_object();
      break;
    case Kind::kArray:
      begin_array();
      break;
    case Kind::kString:
      string_token();
      break;
    case Kind::kBool:
      read_bool();
      break;
    case Kind::kNull:
      read_null();
      break;
    case Kind::kNumber:
      read_number();
      break;
    }
  } while (open_.size() > depth);
}

std::string_view Reader::raw_value() {
  skip_whitespace();
  const char* const start = cur_;
  skip();
  return std::string_view(start, static_cast<std::size_t>(cur_ - start));
}

void Reader::finish() {
  skip_whitespace();
  if (cur_ != end_) {
    fail("trailing characters");
  }
}

Value Value::read(Reader& in) {
  Value root;
  // The containers being filled, innermost last. A pointer stays valid:
  // only the innermost container grows, and no open one lives in it.
  std::vector<Value*> open;
  Value* slot = &root;
  std::string_view key;
  while (slot != nullptr) {
    switch (in.peek()) {
    case Reader::Kind::kObject:
      in.begin_object();
      *slot = object();
      open.push_back(slot);
      break;
    case Reader::Kind::kArray:
      in.begin_array();
      *slot = array();
      open.push_back(slot);
      break;
    case Reader::Kind::kString:
      *slot = Value(in.read_string());
      break;
    case Reader::Kind::kBool:
      *slot = Value(in.read_bool());
      break;
    case Reader::Kind::kNull:
      in.read_null();
      break;
    case Reader::Kind::kNumber:
      *slot = Value(in.read_number());
      break;
    }
    // The next slot to fill: a new field or element of the innermost
    // container that has one, closing the finished ones.
    slot = nullptr;
    while (slot == nullptr && !open.empty()) {
      Value& container = *open.back();
      if (!(container.is_object() ? in.next_key(key) : in.next_element())) {
        open.pop_back();
      } else if (!container.is_object()) {
        slot = &container.array_.emplace_back();
      } else if (container.find(key) == nullptr) {
        slot = &container.object_.emplace_back(std::string(key), Value())
                    .second;
      } else {
        in.fail("repeated key \"" + std::string(key) + "\"");
      }
    }
  }
  return root;
}

std::string Value::dump(int indent) const {
  std::string out;
  StringSink sink(out);
  Writer writer(sink, indent);
  writer.value(*this);
  writer.flush();
  return out;
}

Value Value::parse(std::string_view text) {
  Reader in(text);
  Value value = read(in);
  in.finish();
  return value;
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

void read_file(const std::string& path,
               const std::function<void(Reader&)>& consume) {
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
  Reader in(text);
  consume(in);
  in.finish();
}

Value read_file(const std::string& path) {
  Value value;
  read_file(path, [&](Reader& in) { value = Value::read(in); });
  return value;
}

} // namespace dsem::json
