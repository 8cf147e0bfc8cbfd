#include "common/cli.hpp"

#include <array>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dsem {
namespace {

CliParser make_parser() {
  CliParser cli("test", "test program");
  cli.add_flag("verbose", "enable verbose output");
  cli.add_option("count", "number of things", "10");
  cli.add_option("rate", "a rate", "1.5");
  cli.add_option("name", "a name", "default");
  return cli;
}

TEST(Cli, DefaultsApplyWithoutArguments) {
  CliParser cli = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv.data()));
  EXPECT_FALSE(cli.flag("verbose"));
  EXPECT_EQ(cli.option_int("count"), 10);
  EXPECT_DOUBLE_EQ(cli.option_double("rate"), 1.5);
  EXPECT_EQ(cli.option("name"), "default");
}

TEST(Cli, ParsesEqualsForm) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--count=42", "--name=zap"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.option_int("count"), 42);
  EXPECT_EQ(cli.option("name"), "zap");
}

TEST(Cli, ParsesSpaceForm) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--count", "7"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.option_int("count"), 7);
}

TEST(Cli, FlagSetsTrue) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(static_cast<int>(argv.size()), argv.data()),
               contract_error);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--count"};
  EXPECT_THROW(cli.parse(static_cast<int>(argv.size()), argv.data()),
               contract_error);
}

TEST(Cli, FlagWithValueThrows) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--verbose=yes"};
  EXPECT_THROW(cli.parse(static_cast<int>(argv.size()), argv.data()),
               contract_error);
}

TEST(Cli, NonNumericIntThrows) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--count=abc"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW(cli.option_int("count"), contract_error);
}

TEST(Cli, SizeOptionReturnsTheCount) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--count=0"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.option_size("count", 0), 0u);
  CliParser defaults = make_parser();
  const std::array none = {"prog"};
  ASSERT_TRUE(defaults.parse(1, none.data()));
  EXPECT_EQ(defaults.option_size("count"), 10u);
}

// A negative count must not wrap around into a huge std::size_t.
TEST(Cli, SizeOptionBelowMinimumThrowsNamingTheFlag) {
  for (const char* arg : {"--count=-1", "--count=-9223372036854775808"}) {
    for (const std::size_t min : {0u, 1u}) {
      CliParser cli = make_parser();
      const std::array argv = {"prog", arg};
      ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
      try {
        (void)cli.option_size("count", min);
        ADD_FAILURE() << arg << " accepted";
      } catch (const contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos)
            << e.what();
      }
    }
  }
  CliParser zero = make_parser();
  const std::array argv = {"prog", "--count=0"};
  ASSERT_TRUE(zero.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)zero.option_size("count"), contract_error);
}

TEST(Cli, SizeOptionRejectsNonIntegers) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--count=1.5"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.option_size("count"), contract_error);
}

TEST(Cli, Int32OptionReturnsValuesThatFit) {
  for (const auto& [arg, value] :
       {std::pair{"--count=-2147483648", -2147483647 - 1},
        std::pair{"--count=2147483647", 2147483647}, std::pair{"--count=0", 0},
        std::pair{"--count=-3", -3}}) {
    CliParser cli = make_parser();
    const std::array argv = {"prog", arg};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.option_int32("count"), value) << arg;
  }
  CliParser defaults = make_parser();
  const std::array none = {"prog"};
  ASSERT_TRUE(defaults.parse(1, none.data()));
  EXPECT_EQ(defaults.option_int32("count"), 10);
}

// 2^32 + 1 must not narrow to 1.
TEST(Cli, Int32OptionOutOfRangeThrowsNamingTheFlag) {
  for (const char* arg :
       {"--count=4294967297", "--count=2147483648", "--count=-2147483649",
        "--count=9223372036854775807", "--count=-9223372036854775808"}) {
    CliParser cli = make_parser();
    const std::array argv = {"prog", arg};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    try {
      (void)cli.option_int32("count");
      ADD_FAILURE() << arg << " accepted";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, Int32OptionRejectsNonIntegers) {
  for (const char* arg : {"--count=1.5", "--count=99999999999999999999"}) {
    CliParser cli = make_parser();
    const std::array argv = {"prog", arg};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_THROW((void)cli.option_int32("count"), contract_error) << arg;
  }
}

TEST(Cli, NonNumericDoubleThrows) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--rate=fast"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW(cli.option_double("rate"), contract_error);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli = make_parser();
  const std::array argv = {"prog", "input.txt", "--count=3", "extra"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "extra");
}

TEST(Cli, DuplicateRegistrationThrows) {
  CliParser cli("p", "d");
  cli.add_flag("x", "x");
  EXPECT_THROW(cli.add_option("x", "x", "1"), contract_error);
}

TEST(Cli, QueryingWrongKindThrows) {
  CliParser cli = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv.data()));
  EXPECT_THROW(cli.flag("count"), contract_error);
  EXPECT_THROW(cli.option("verbose"), contract_error);
}

} // namespace
} // namespace dsem
