#include "core/sweep.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dsem::core {
namespace {

const std::vector<double> kValues = {600.0, 700.0, 800.0, 900.0, 1000.0};

TEST(EveryNth, StrideOneKeepsEveryValue) {
  EXPECT_EQ(every_nth(kValues, 1), kValues);
}

TEST(EveryNth, KeepsEveryNthFromTheFirst) {
  EXPECT_EQ(every_nth(kValues, 2), (std::vector<double>{600.0, 800.0, 1000.0}));
  EXPECT_EQ(every_nth(kValues, 4), (std::vector<double>{600.0, 1000.0}));
}

TEST(EveryNth, StrideLargerThanTheInputKeepsTheFirst) {
  EXPECT_EQ(every_nth(kValues, 5), std::vector<double>{600.0});
  EXPECT_EQ(every_nth(kValues, 1000), std::vector<double>{600.0});
}

TEST(EveryNth, EmptyInputGivesEmptyGrid) {
  EXPECT_TRUE(every_nth({}, 3).empty());
}

TEST(EveryNth, StrideZeroThrows) {
  EXPECT_THROW(every_nth(kValues, 0), contract_error);
  EXPECT_THROW(every_nth({}, 0), contract_error);
}

} // namespace
} // namespace dsem::core
