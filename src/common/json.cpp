#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

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

void escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
    case '"':
      os << "\\\"";
      break;
    case '\\':
      os << "\\\\";
      break;
    case '\n':
      os << "\\n";
      break;
    case '\t':
      os << "\\t";
      break;
    case '\r':
      os << "\\r";
      break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        const char* hex = "0123456789abcdef";
        os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
      } else {
        os << c;
      }
    }
  }
}

namespace {

void write_number(std::ostream& os, double v) {
  DSEM_ENSURE(std::isfinite(v), "json: cannot serialize a non-finite number");
  // Integral values within the exactly-representable range print without
  // a decimal point (counts, iteration totals); everything else prints
  // round-trip exact.
  constexpr double kExactIntLimit = 9007199254740992.0; // 2^53
  if (v == std::floor(v) && std::abs(v) < kExactIntLimit) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    os << buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  }
}

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

void Value::write_impl(std::ostream& os, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent >= 0) {
      os << '\n' << std::string(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
  case Type::kNull:
    os << "null";
    break;
  case Type::kBool:
    os << (bool_ ? "true" : "false");
    break;
  case Type::kNumber:
    write_number(os, number_);
    break;
  case Type::kString:
    os << '"';
    escape(os, string_);
    os << '"';
    break;
  case Type::kArray: {
    if (array_.empty()) {
      os << "[]";
      break;
    }
    os << '[';
    for (std::size_t i = 0; i < array_.size(); ++i) {
      if (i > 0) {
        os << ',';
      }
      newline_pad(depth + 1);
      array_[i].write_impl(os, indent, depth + 1);
    }
    newline_pad(depth);
    os << ']';
    break;
  }
  case Type::kObject: {
    if (object_.empty()) {
      os << "{}";
      break;
    }
    os << '{';
    for (std::size_t i = 0; i < object_.size(); ++i) {
      if (i > 0) {
        os << ',';
      }
      newline_pad(depth + 1);
      os << '"';
      escape(os, object_[i].first);
      os << "\":";
      if (indent >= 0) {
        os << ' ';
      }
      object_[i].second.write_impl(os, indent, depth + 1);
    }
    newline_pad(depth);
    os << '}';
    break;
  }
  }
}

void Value::write(std::ostream& os, int indent) const {
  write_impl(os, indent, 0);
}

std::string Value::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_file(const std::string& path, const Value& value) {
  std::ofstream out(path);
  DSEM_ENSURE(out.good(), "cannot open output file: " + path);
  value.write(out, 2);
  out << "\n";
  DSEM_ENSURE(out.good(), "failed writing output file: " + path);
}

} // namespace dsem::json
