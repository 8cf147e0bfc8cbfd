// dsem::json contract tests.
//
// The writer's determinism is load-bearing (golden metrics snapshots and
// BENCH reports are compared as strings), so these tests pin the exact
// serialized bytes: insertion-ordered object keys, integral numbers
// without a decimal point, %.17g for everything else, and a stable escape
// set. The parser must round-trip everything the writer emits and reject
// malformed input with a position-carrying contract_error. The streaming
// Writer is the one formatter behind dump and write_file; its number
// format is pinned against a printf reference over random bit patterns.
#include "common/json.hpp"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dsem::json {
namespace {

TEST(JsonValue, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(1.5).is_number());
  EXPECT_TRUE(Value(7).is_number());
  EXPECT_TRUE(Value(std::uint64_t{7}).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value::array().is_array());
  EXPECT_TRUE(Value::object().is_object());

  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(2.5).as_number(), 2.5);
  EXPECT_EQ(Value("abc").as_string(), "abc");
  EXPECT_THROW(Value(1.0).as_string(), contract_error);
  EXPECT_THROW(Value("x").as_number(), contract_error);
  EXPECT_THROW(Value().as_array(), contract_error);
}

TEST(JsonValue, ObjectSetOverwritesInPlaceAndKeepsOrder) {
  auto obj = Value::object();
  obj.set("b", 1);
  obj.set("a", 2);
  obj.set("b", 3); // overwrite must not move "b" to the end
  EXPECT_EQ(obj.dump(), R"({"b":3,"a":2})");

  EXPECT_EQ(obj.at("a").as_number(), 2.0);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("missing"), contract_error);

  // Non-const lookup writes through.
  obj.at("a") = Value("patched");
  EXPECT_EQ(obj.at("a").as_string(), "patched");
}

TEST(JsonValue, ArrayPushBack) {
  auto arr = Value::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Value::object());
  EXPECT_EQ(arr.as_array().size(), 3u);
  EXPECT_EQ(arr.dump(), R"([1,"two",{}])");
  EXPECT_THROW(Value(1.0).push_back(2), contract_error);
}

TEST(JsonWriter, NumberFormattingIsDeterministic) {
  // Integral doubles inside the 2^53 exact range print without a decimal
  // point — counters and bucket counts must look like integers.
  EXPECT_EQ(Value(0).dump(), "0");
  EXPECT_EQ(Value(-42).dump(), "-42");
  EXPECT_EQ(Value(9007199254740992.0).dump(), "9007199254740992");
  // Non-integral values use %.17g: round-trip exact and byte-stable.
  EXPECT_EQ(Value(0.5).dump(), "0.5");
  EXPECT_EQ(Value(0.1).dump(), "0.10000000000000001");
  // Above 2^53 integrality is not representable, so %.17g takes over
  // (1e300 itself is not exactly representable; the digits are stable).
  EXPECT_EQ(Value(1e300).dump(), "1.0000000000000001e+300");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(Value("q\"b\\n\nt\tu\x01").dump(),
            R"("q\"b\\n\nt\tu\u0001")");
  std::ostringstream os;
  escape(os, "plain");
  EXPECT_EQ(os.str(), "plain");
}

TEST(JsonWriter, PrettyPrintIndentsNestedContainers) {
  auto root = Value::object();
  root.set("a", 1);
  auto arr = Value::array();
  arr.push_back(true);
  root.set("b", std::move(arr));
  root.set("c", Value::object());
  EXPECT_EQ(root.dump(2),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ],\n  \"c\": {}\n}");
}

TEST(JsonParser, RoundTripsEveryType) {
  const std::string text =
      R"({"null":null,"bool":false,"int":-3,"float":0.25,)"
      R"("str":"a\u0041b","arr":[1,[2],{"k":"v"}],"obj":{"nested":true}})";
  const Value v = Value::parse(text);
  EXPECT_TRUE(v.at("null").is_null());
  EXPECT_EQ(v.at("bool").as_bool(), false);
  EXPECT_EQ(v.at("int").as_number(), -3.0);
  EXPECT_EQ(v.at("float").as_number(), 0.25);
  EXPECT_EQ(v.at("str").as_string(), "aAb");
  EXPECT_EQ(v.at("arr").as_array().size(), 3u);
  EXPECT_EQ(v.at("obj").at("nested").as_bool(), true);

  // Writer output parses back to an equal document.
  EXPECT_EQ(Value::parse(v.dump()), v);
  EXPECT_EQ(Value::parse(v.dump(2)), v);
}

TEST(JsonParser, DecodesSurrogatePairsToUtf8) {
  // U+1F600 as a surrogate pair; must decode to the 4-byte UTF-8 form.
  const Value v = Value::parse(R"("\ud83d\ude00")");
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParser, AcceptsScientificNotationAndWhitespace) {
  EXPECT_EQ(Value::parse(" \n\t 1.5e3 ").as_number(), 1500.0);
  EXPECT_EQ(Value::parse("-2E-2").as_number(), -0.02);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  for (const char* bad : {
           "",             // empty input
           "{",            // unterminated object
           "[1,]",         // trailing comma
           "{\"a\" 1}",    // missing colon
           "\"unterminated", // unterminated string
           "tru",          // truncated keyword
           "1 2",          // trailing content
           "{\"a\":1,}",   // trailing comma in object
           "\"\\x\"",      // unknown escape
       }) {
    EXPECT_THROW(Value::parse(bad), contract_error) << bad;
  }
  // Errors carry the offset so malformed BENCH files are diagnosable.
  for (const char* bad : {"[1, x]", "1 2"}) {
    try {
      Value::parse(bad);
      ADD_FAILURE() << "expected contract_error for " << bad;
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << e.what();
    }
  }
}

/// The message Value::parse raises for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    Value::parse(text);
  } catch (const contract_error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonParser, TrailingCharactersAreAParseErrorWithTheirOffset) {
  // The same form as every other parse error, at the first byte after
  // the document.
  for (const auto& [text, offset] :
       std::vector<std::pair<std::string, int>>{
           {"0x10", 1}, {"1 2", 2}, {"{} []", 3}, {"null,", 4}, {"[1]]", 3}}) {
    EXPECT_EQ(parse_error(text).rfind("json parse error at offset " +
                                          std::to_string(offset) +
                                          ": trailing characters",
                                      0),
              0u)
        << text << ": " << parse_error(text);
  }
}

TEST(JsonParser, RepeatedKeyIsAParseErrorWithItsOffset) {
  // The first copy used to win silently: {"a":1,"a":2} read a as 1. The
  // offset is the byte after the repeated key's colon, where
  // Reader::read_object reports it too.
  for (const auto& [text, offset] : std::vector<std::pair<std::string, int>>{
           {R"({"a":1,"a":2})", 11},
           {R"({"x": [{"b": 1}, {"b": 2, "c": {"a": 0, "a": 0}}]})", 44},
           {R"({"a": 1, "\u0061": 2})", 18}}) {
    EXPECT_EQ(parse_error(text).rfind("json parse error at offset " +
                                          std::to_string(offset) +
                                          ": repeated key \"a\"",
                                      0),
              0u)
        << text << ": " << parse_error(text);
  }
  // One name in sibling, nested or array-held objects is not a repeat.
  const Value ok = Value::parse(R"({"a": {"a": 1}, "b": [{"a": 2}, {"a": 3}]})");
  EXPECT_EQ(ok.at("a").at("a").as_number(), 1.0);
  EXPECT_EQ(ok.at("b").as_array()[1].at("a").as_number(), 3.0);
}

TEST(JsonParser, RejectsNumbersOutsideTheJsonGrammar) {
  // RFC 8259: no '+' sign, no bare '.', no leading zero before a digit,
  // and a point or an exponent needs a digit after it. strtod takes
  // every one of these, and so did the parser built on it.
  for (const char* bad : {"+5", ".5", "01", "1.", "1.e5", "[+1]", "-01",
                          "00", "-.5", "1e", "1e+", "1E-", "2.5e", "--1",
                          "-", "1.5.2", "1e5e5", "[1.]", "{\"a\":01}"}) {
    const std::string error = parse_error(bad);
    EXPECT_EQ(error.rfind("json parse error at offset", 0), 0u)
        << bad << ": " << error;
  }
  // Every form the grammar allows still parses.
  for (const char* good : {"0", "-0", "0.5", "-0.5", "10", "1e5", "1E5",
                           "1e+5", "1e-5", "0e0", "-0.0e-0", "123.456e7"}) {
    EXPECT_EQ(parse_error(good), "") << good;
  }
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(JsonParser, PinsNumberRangeEdges) {
  const auto number = [](const std::string& text) {
    return Value::parse(text).as_number();
  };
  EXPECT_EQ(bits_of(number("-0")), bits_of(-0.0));
  EXPECT_EQ(bits_of(number("-0.0e5")), bits_of(-0.0));
  EXPECT_EQ(bits_of(number("0e999999")), bits_of(0.0));
  // Too large for a double: rejected, not read as infinity.
  for (const char* huge : {"1e999", "-1e999", "1.7976931348623159e308",
                           "1e400000000000"}) {
    EXPECT_NE(parse_error(huge), "") << huge;
  }
  EXPECT_EQ(number("1.7976931348623157e308"), DBL_MAX);
  // Too small even for a subnormal: a zero of the number's sign, as
  // strtod gives it.
  EXPECT_EQ(bits_of(number("1e-400")), bits_of(0.0));
  EXPECT_EQ(bits_of(number("-1e-400")), bits_of(-0.0));
  EXPECT_EQ(bits_of(number("2e-324")), bits_of(0.0));
  EXPECT_EQ(bits_of(number("-2e-324")), bits_of(-0.0));
  EXPECT_EQ(bits_of(number("1e-400000000000")), bits_of(0.0));
  // Subnormals stay subnormal.
  const double denorm = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(number("4.9e-324"), denorm);
  EXPECT_EQ(number("-4.9e-324"), -denorm);
  EXPECT_EQ(number("1e-310"), std::strtod("1e-310", nullptr));
  // Overflow and underflow are told apart by where the first significant
  // digit lands, not by the exponent's sign alone.
  const std::string zeros(400, '0');
  EXPECT_EQ(number("1" + zeros + "e-400"), 1.0);
  EXPECT_EQ(number("1" + zeros + "e-100"), 1e300);
  EXPECT_NE(parse_error("1" + zeros + "e-50"), "");
  EXPECT_NE(parse_error("1" + zeros), "");
  EXPECT_EQ(bits_of(number("0." + zeros + "1")), bits_of(0.0));
  EXPECT_EQ(bits_of(number("-0." + zeros + "1e+30")), bits_of(-0.0));
  EXPECT_EQ(number("0." + zeros + "1e+400"), 0.1);
  EXPECT_NE(parse_error("0." + zeros + "1e+800"), "");
}

/// A random decimal in JSON's grammar, from well inside to well outside
/// the double range, with up to 40 significant digits.
std::string random_decimal(std::mt19937_64& rng) {
  const auto below = [&](unsigned n) {
    return static_cast<unsigned>(rng() % n);
  };
  const auto digits = [&](std::string& out, unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      out += static_cast<char>('0' + below(10));
    }
  };
  std::string out = below(2) == 0 ? "-" : "";
  if (below(5) == 0) {
    out += '0';
  } else {
    out += static_cast<char>('1' + below(9));
    digits(out, below(21));
  }
  if (below(2) == 0) {
    out += '.';
    digits(out, 1 + below(20));
  }
  if (below(5) != 0) {
    out += below(2) == 0 ? 'e' : 'E';
    const unsigned sign = below(3);
    out += sign == 0 ? "" : sign == 1 ? "+" : "-";
    out += std::to_string(below(360));
  }
  return out;
}

TEST(JsonReader, NumbersMatchStrtodOnSeededInputs) {
  std::mt19937_64 rng(0x57D0'D00DULL);
  // Random finite bit patterns, formatted by the Writer, read back bit
  // for bit (-0.0 is integral, so it is written "0" and reads +0.0).
  int checked = 0;
  int mismatches = 0;
  std::string text;
  while (checked < 100'000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) {
      continue;
    }
    text.clear();
    StringSink sink(text);
    Writer writer(sink);
    writer.value(v);
    writer.flush();
    Reader in(text);
    const double back = in.read_number();
    in.finish();
    if (bits_of(back) != bits_of(v == 0.0 ? 0.0 : v)) {
      ADD_FAILURE() << text;
      ++mismatches;
    }
    ++checked;
    ASSERT_LT(mismatches, 10);
  }
  // Random decimal strings: strtod's value bit for bit, or a rejection
  // exactly where strtod overflows to infinity.
  for (int i = 0; i < 100'000; ++i) {
    const std::string decimal = random_decimal(rng);
    const double expected = std::strtod(decimal.c_str(), nullptr);
    Reader in(decimal);
    if (!std::isfinite(expected)) {
      EXPECT_THROW(in.read_number(), contract_error) << decimal;
      continue;
    }
    if (bits_of(in.read_number()) != bits_of(expected)) {
      ADD_FAILURE() << decimal;
      ++mismatches;
    }
    ASSERT_LT(mismatches, 10);
  }
}

TEST(JsonReader, PullsTokensInDocumentOrder) {
  Reader in(R"( {"a": [1, "x\ty", true, null],
                 "skip": [[{}], {"d": [1, {"e": "]}"}]}, -0.5],
                 "b": {"c": -2.5}, "u": "\u00e9", "empty": []} )");
  std::string_view key;
  in.begin_object();
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(key, "a");
  in.begin_array();
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.peek(), Reader::Kind::kNumber);
  EXPECT_EQ(in.read_number(), 1.0);
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.peek(), Reader::Kind::kString);
  EXPECT_EQ(in.read_string(), "x\ty");
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.peek(), Reader::Kind::kBool);
  EXPECT_TRUE(in.read_bool());
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.peek(), Reader::Kind::kNull);
  in.read_null();
  EXPECT_FALSE(in.next_element());
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(key, "skip");
  EXPECT_EQ(in.peek(), Reader::Kind::kArray);
  in.skip();
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(key, "b");
  EXPECT_EQ(in.peek(), Reader::Kind::kObject);
  in.begin_object();
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(key, "c");
  EXPECT_EQ(in.read_number(), -2.5);
  EXPECT_FALSE(in.next_key(key));
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(key, "u");
  EXPECT_EQ(in.read_string(), "\xC3\xA9");
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(key, "empty");
  in.begin_array();
  EXPECT_FALSE(in.next_element());
  EXPECT_FALSE(in.next_key(key));
  in.finish();
}

TEST(JsonReader, TypedReadsRejectOtherKinds) {
  const auto error = [](const char* text, auto read) -> std::string {
    Reader in(text);
    try {
      read(in);
    } catch (const contract_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error(R"("1")", [](Reader& in) { in.read_number(); })
                .find("offset 0: expected a number"),
            std::string::npos);
  EXPECT_NE(error("1", [](Reader& in) { in.read_string(); })
                .find("offset 0: expected a string"),
            std::string::npos);
  EXPECT_NE(error("null", [](Reader& in) { in.read_bool(); }), "");
  EXPECT_NE(error("[]", [](Reader& in) { in.begin_object(); }), "");
  EXPECT_NE(error("{}", [](Reader& in) { in.begin_array(); }), "");
  EXPECT_NE(error("  ", [](Reader& in) { in.peek(); })
                .find("offset 2: unexpected end of input"),
            std::string::npos);
  // skip() checks what it skips.
  for (const char* bad : {"[1, {\"a\": tru}]", "[1,]", "{\"a\" 1}",
                          "[\"\\x\"]", "[01]", "{\"a\":[}"}) {
    EXPECT_NE(error(bad, [](Reader& in) { in.skip(); }), "") << bad;
  }
}

TEST(JsonReader, ReadObjectRejectsARepeatedKey) {
  const auto skip_all = [](Reader& in) {
    in.read_object([&](std::string_view) { in.skip(); });
    in.finish();
  };
  Reader repeated(R"({"a": 1, "b": [2], "a": 3})");
  try {
    skip_all(repeated);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("repeated key \"a\""),
              std::string::npos)
        << e.what();
  }
  // Escapes are decoded before keys are compared.
  Reader escaped(R"({"a": 1, "\u0061": 2})");
  EXPECT_THROW(skip_all(escaped), contract_error);
  // One name in different objects is not a repeat.
  Reader nested(R"({"a": {"a": 1}, "b": {"a": 2}})");
  EXPECT_NO_THROW(skip_all(nested));
}

TEST(JsonReader, RawValueIsTheSkippedText) {
  Reader in(R"({"m":  {"x": [1, 2]} , "k": "v"})");
  std::string_view key;
  in.begin_object();
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(in.raw_value(), R"({"x": [1, 2]})");
  ASSERT_TRUE(in.next_key(key));
  EXPECT_EQ(in.raw_value(), R"("v")");
  EXPECT_FALSE(in.next_key(key));
  in.finish();
}

TEST(JsonReader, DepthBoundHoldsForSkipToo) {
  const auto limit = static_cast<std::size_t>(kMaxDepth);
  const std::string deepest = std::string(limit, '[') + std::string(limit, ']');
  Reader at_limit(deepest);
  EXPECT_NO_THROW(at_limit.skip());
  const std::string deeper = "[" + deepest + "]";
  Reader past_limit(deeper);
  EXPECT_THROW(past_limit.skip(), contract_error);
}

TEST(JsonParser, RejectsNestingDeeperThanMaxDepth) {
  // Without a bound, a hostile document this deep overflows the
  // recursive-descent parser's stack instead of raising contract_error.
  constexpr std::size_t kHostileDepth = 1'000'000;
  for (const std::string opener : {"[", "{\"a\":"}) {
    std::string text;
    text.reserve(opener.size() * kHostileDepth);
    for (std::size_t i = 0; i < kHostileDepth; ++i) {
      text += opener;
    }
    try {
      Value::parse(text);
      ADD_FAILURE() << "expected contract_error for " << opener;
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonParser, AcceptsNestingAtExactlyMaxDepth) {
  // `levels` containers: levels - 1 objects around one innermost array.
  const auto nested = [](int levels) {
    std::string text;
    for (int i = 1; i < levels; ++i) {
      text += "{\"a\":";
    }
    text += "[]";
    text.append(static_cast<std::size_t>(levels - 1), '}');
    return text;
  };
  const Value deepest = Value::parse(nested(kMaxDepth));
  int depth = 1;
  const Value* inner = &deepest;
  for (; inner->is_object(); inner = &inner->at("a")) {
    ++depth;
  }
  EXPECT_TRUE(inner->is_array());
  EXPECT_EQ(depth, kMaxDepth);
  EXPECT_THROW(Value::parse(nested(kMaxDepth + 1)), contract_error);

  const auto limit = static_cast<std::size_t>(kMaxDepth);
  const std::string arrays = std::string(limit, '[') + std::string(limit, ']');
  EXPECT_NO_THROW(Value::parse(arrays));
  EXPECT_THROW(Value::parse("[" + arrays + "]"), contract_error);
}

/// The number format json::Writer promises, spelled with printf: "%lld"
/// for integral values below 2^53 in magnitude, "%.17g" for the rest.
std::string printf_reference(double v) {
  constexpr double kExactIntLimit = 9007199254740992.0; // 2^53
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < kExactIntLimit) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

void expect_number_round_trip(double v) {
  const std::string text = Value(v).dump();
  ASSERT_EQ(text, printf_reference(v)) << std::hexfloat << v;
  const double back = Value::parse(text).as_number();
  // -0.0 is integral and prints as "0", so it comes back as +0.0.
  const double expected = v == 0.0 ? 0.0 : v;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
            std::bit_cast<std::uint64_t>(expected))
      << text;
}

TEST(JsonWriter, NumberFormatMatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(0x5EED'0F'D0CULL);
  int checked = 0;
  while (checked < 100'000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) {
      continue;
    }
    expect_number_round_trip(v);
    ++checked;
  }
}

TEST(JsonWriter, NumberFormatMatchesPrintfAcrossTheCommonRange) {
  // Random bit patterns rarely land where measured quantities live
  // (seconds, joules, MHz, residuals); draw 10^5 values from 2^-24 to
  // 2^60, either sign, full 52-bit mantissas.
  std::mt19937_64 rng(0xC0FFEEULL);
  std::uniform_int_distribution<int> exponent(-24, 60);
  for (int i = 0; i < 100'000; ++i) {
    const double mantissa =
        1.0 + static_cast<double>(rng() >> 12) * 0x1p-52; // [1, 2)
    const double v = std::ldexp(mantissa, exponent(rng));
    expect_number_round_trip(i % 2 == 0 ? v : -v);
  }
  // Exact ties at the 17th digit round half to even: 2^49 + j/8 has 18
  // significant digits, the last a 5 when j is odd.
  for (double whole = 0x1p49; whole < 0x1p49 + 64; whole += 1) {
    for (int eighths = 1; eighths < 8; eighths += 2) {
      expect_number_round_trip(whole + eighths / 8.0);
    }
  }
  // The neighbours of every power of ten, where the decimal exponent and
  // the %f/%e switch change.
  for (int e = -8; e <= 18; ++e) {
    const double power =
        std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    double below = power;
    double above = power;
    for (int step = 0; step < 4; ++step) {
      expect_number_round_trip(below);
      expect_number_round_trip(above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, DBL_MAX);
    }
  }
}

TEST(JsonWriter, NumberFormatMatchesPrintfOnEdgeValues) {
  constexpr double kTwo53 = 9007199254740992.0;
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {
      0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, denorm, -denorm,
      3 * denorm, DBL_MIN - denorm, DBL_MIN / 3.0, -DBL_MIN / 7.0,
      kTwo53, -kTwo53, kTwo53 - 1, -(kTwo53 - 1), kTwo53 + 2, -(kTwo53 + 2),
      std::nextafter(kTwo53, 0.0), std::nextafter(kTwo53, DBL_MAX),
      std::nextafter(-kTwo53, 0.0), std::nextafter(-kTwo53, -DBL_MAX),
      kTwo53 - 0.5, 0.1, 1.0 / 3.0, 123456789.5, -2.5e-7, 1e21, 1e22};
  for (int exponent = -323; exponent <= 308; ++exponent) {
    const double power = std::strtod(("1e" + std::to_string(exponent)).c_str(),
                                     nullptr);
    values.push_back(power);
    values.push_back(-power);
  }
  for (const double v : values) {
    expect_number_round_trip(v);
  }
}

TEST(JsonWriter, NonFiniteNumbersRaise) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(Value(bad).dump(), contract_error);
  }
}

TEST(JsonInteger, AcceptsEveryIntegerInRange) {
  EXPECT_EQ(as_integer<std::int32_t>(Value(-2147483648.0), "f"),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(as_integer<std::int32_t>(Value(2147483647.0), "f"),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(as_integer<std::int32_t>(Value(-0.0), "f"), 0);
  EXPECT_EQ(as_integer<int>(Value(-1), "f"), -1);
  EXPECT_EQ(as_integer<std::size_t>(Value(0), "f"), 0u);
  // The largest double below 2^64 is an integer that fits.
  const double below_2_64 = std::nextafter(18446744073709551616.0, 0.0);
  EXPECT_EQ(as_integer<std::uint64_t>(Value(below_2_64), "f"),
            static_cast<std::uint64_t>(below_2_64));
}

TEST(JsonInteger, RejectsNonFiniteFractionalAndOutOfRange) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kInf, -kInf,
                           std::numeric_limits<double>::quiet_NaN(), 2.5,
                           -0.5, 1e-300, 2147483648.0, -2147483649.0, 3e9,
                           1e15 + 0.5}) {
    EXPECT_THROW(as_integer<std::int32_t>(Value(bad), "f"), contract_error)
        << bad;
  }
  for (const double bad : {-1.0, 18446744073709551616.0, 1e20, kInf}) {
    EXPECT_THROW(as_integer<std::size_t>(Value(bad), "f"), contract_error)
        << bad;
  }
  EXPECT_THROW(as_integer<int>(Value("7"), "f"), contract_error);
  try {
    as_integer<int>(Value(2.5), "dataset: cols");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("dataset: cols: 2.5"),
              std::string::npos)
        << e.what();
  }
}

/// A document with every type, nesting, escapes and empty containers.
Value mixed_document() {
  auto root = Value::object();
  root.set("name", "a \"quoted\"\tname\n\x02");
  root.set("count", 42);
  root.set("ratio", 0.1);
  root.set("flag", false);
  root.set("nothing", Value());
  root.set("empty_array", Value::array());
  root.set("empty_object", Value::object());
  auto rows = Value::array();
  for (int i = 0; i < 3; ++i) {
    auto row = Value::object();
    row.set("i", i);
    row.set("x", 1.0 / (i + 3));
    auto inner = Value::array();
    inner.push_back(Value::array());
    inner.push_back(i % 2 == 0);
    row.set("inner", std::move(inner));
    rows.push_back(std::move(row));
  }
  root.set("rows", std::move(rows));
  return root;
}

TEST(JsonWriter, StreamedTokensMatchValueLayouts) {
  // Emitting the document token by token must give the bytes dump gives
  // for the same Value, in both layouts.
  for (const int indent : {-1, 0, 2, 4}) {
    std::string out;
    StringSink sink(out);
    Writer w(sink, indent);
    w.begin_object().key("a").value(1).key("b").begin_array().value(true);
    w.end_array().key("c").begin_object().end_object();
    w.key("d").value(mixed_document()).end_object();
    w.flush();

    auto expected = Value::object();
    expected.set("a", 1);
    auto b = Value::array();
    b.push_back(true);
    expected.set("b", std::move(b));
    expected.set("c", Value::object());
    expected.set("d", mixed_document());
    EXPECT_EQ(out, expected.dump(indent)) << indent;
  }
}

TEST(JsonWriter, ChunkedFlushesAreInvisibleToTheSinks) {
  // Large enough to cross many 64 KiB chunk boundaries.
  auto big = Value::array();
  for (int i = 0; i < 8'000; ++i) {
    big.push_back(mixed_document().at("rows"));
  }
  for (const int indent : {-1, 2}) {
    std::string streamed;
    StringSink string_sink(streamed);
    Fnv1aSink hash;
    Writer to_string(string_sink, indent);
    Writer to_hash(hash, indent);
    to_string.value(big);
    to_hash.value(big);
    to_string.flush();
    to_hash.flush();
    EXPECT_GT(streamed.size(), 8 * Writer::kChunkBytes);
    EXPECT_EQ(streamed, big.dump(indent));
    Fnv1aSink whole;
    whole.append(streamed);
    EXPECT_EQ(hash.digest(), whole.digest());
  }
}

TEST(JsonWriter, FnvSinkIsFnv1a64) {
  Fnv1aSink empty;
  EXPECT_EQ(empty.digest(), 0xcbf29ce484222325ULL);
  Fnv1aSink a;
  a.append("a");
  EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL); // published FNV-1a("a")
  Fnv1aSink split;
  split.append("foo");
  split.append("bar");
  Fnv1aSink joined;
  joined.append("foobar");
  EXPECT_EQ(split.digest(), joined.digest());
}

TEST(JsonWriter, StreamEscapeMatchesTheWriter) {
  std::string all;
  for (int c = 1; c < 128; ++c) {
    all += static_cast<char>(c);
  }
  all += "\xC3\xA9"; // UTF-8 passes through unescaped
  std::ostringstream os;
  escape(os, all);
  EXPECT_EQ("\"" + os.str() + "\"", Value(all).dump());
  EXPECT_EQ(Value::parse("\"" + os.str() + "\"").as_string(), all);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(JsonWriteFile, WritesPrettyDocumentWithTrailingNewline) {
  const std::string path = testing::TempDir() + "dsem_json_write.json";
  write_file(path, mixed_document());
  EXPECT_EQ(read_bytes(path), mixed_document().dump(2) + "\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(JsonWriteFile, FailedWriteLeavesPreviousFileIntact) {
  // The non-finite number sits past the first 64 KiB chunk, so the old
  // truncate-in-place writer had already overwritten the file with a
  // partial document when it raised.
  const std::string path = testing::TempDir() + "dsem_json_atomic.json";
  const std::string previous = "{\"kept\": true}\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << previous;
  }
  auto doc = Value::array();
  for (int i = 0; i < 2'000; ++i) {
    doc.push_back(mixed_document().at("rows"));
  }
  doc.push_back(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(write_file(path, doc), contract_error);
  EXPECT_EQ(read_bytes(path), previous);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(JsonWriteFile, SymlinkedPathReplacesTheFileItNames) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "dsem_json_symlink";
  fs::remove_all(dir);
  fs::create_directories(dir / "shared");
  const fs::path target = dir / "shared" / "ledger.json";
  const fs::path link = dir / "out.json";
  {
    std::ofstream out(target, std::ios::binary);
    out << "{}\n";
  }
  fs::create_symlink(target, link);
  write_file(link.string(), mixed_document());
  EXPECT_TRUE(fs::is_symlink(link));
  EXPECT_EQ(fs::read_symlink(link), target);
  EXPECT_EQ(read_bytes(target.string()), mixed_document().dump(2) + "\n");
  EXPECT_FALSE(fs::exists(link.string() + ".tmp"));
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  fs::remove_all(dir);
}

TEST(JsonWriteFile, NonRegularTargetRaises) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "dsem_json_not_a_file";
  fs::create_directories(dir);
  EXPECT_THROW(write_file(dir.string(), Value()), contract_error);
  EXPECT_TRUE(fs::is_directory(dir));
  EXPECT_FALSE(fs::exists(dir.string() + ".tmp"));
  fs::remove_all(dir);
}

TEST(JsonWriteFile, UnopenablePathRaises) {
  EXPECT_THROW(write_file(testing::TempDir() + "no/such/dir/x.json", Value()),
               contract_error);
}

TEST(JsonFile, ReadParsesWhatWriteFileWroteThroughASymlink) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "dsem_json_read";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "doc.json";
  const fs::path link = dir / "link.json";
  write_file(target.string(), mixed_document());
  fs::create_symlink(target, link);
  EXPECT_EQ(read_file(target.string()), mixed_document());
  EXPECT_EQ(read_file(link.string()), mixed_document());
  fs::remove_all(dir);
}

TEST(JsonFile, ReadHandsTheConsumerOneValueAndChecksTheRest) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(testing::TempDir()) / "dsem_json_consume.json";
  const auto read_with = [&](const std::string& text,
                             const std::function<void(Reader&)>& consume) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    read_file(path.string(), consume);
  };
  double seen = 0.0;
  read_with("{\"a\": 1.5}\n", [&](Reader& in) {
    in.read_object([&](std::string_view) { seen = in.read_number(); });
  });
  EXPECT_EQ(seen, 1.5);
  // Bytes after the value, or a consumer that stops inside it, raise.
  EXPECT_THROW(read_with("{} x", [](Reader& in) { in.skip(); }),
               contract_error);
  EXPECT_THROW(read_with("[1, 2]", [](Reader& in) { in.begin_array(); }),
               contract_error);
  fs::remove(path);
}

TEST(JsonFile, ReadRejectsNonRegularFiles) {
  // Without the check, /dev/zero is read until the allocation fails and
  // a FIFO blocks the reader until a writer appears.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "dsem_json_read_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path fifo = dir / "pipe.json";
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path :
       {std::string("/dev/zero"), dir.string(), fifo.string(),
        (dir / "missing.json").string()}) {
    try {
      read_file(path);
      ADD_FAILURE() << "expected contract_error for " << path;
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  fs::remove_all(dir);
}

} // namespace
} // namespace dsem::json
