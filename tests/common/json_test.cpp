// dsem::json contract tests.
//
// The writer's determinism is load-bearing (golden metrics snapshots and
// BENCH reports are compared as strings), so these tests pin the exact
// serialized bytes: insertion-ordered object keys, integral numbers
// without a decimal point, %.17g for everything else, and a stable escape
// set. The parser must round-trip everything the writer emits and reject
// malformed input with a position-carrying contract_error.
#include "common/json.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

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
  try {
    Value::parse("[1, x]");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParser, WriteToStreamMatchesDump) {
  const Value v = Value::parse(R"({"k":[1,2.5,"s"]})");
  std::ostringstream os;
  v.write(os);
  EXPECT_EQ(os.str(), v.dump());
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

} // namespace
} // namespace dsem::json
