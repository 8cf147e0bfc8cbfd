// Integer fields read from dsem-dataset-v1 go through json::as_integer:
// a fractional, non-finite or out-of-range number raises contract_error
// instead of truncating, allocating without bound, or casting out of
// range.
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/dataset.hpp"

namespace dsem::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Two inputs measured at two clocks: x = [feature, freq].
json::Value small_dataset() {
  Dataset ds;
  ds.x = ml::Matrix(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    ds.x(r, 0) = static_cast<double>(r / 2 + 1);
    ds.x(r, 1) = r % 2 == 0 ? 1000.0 : 1400.0;
    ds.time_s.push_back(1.0 + static_cast<double>(r));
    ds.energy_j.push_back(10.0 + static_cast<double>(r));
    ds.groups.push_back(static_cast<int>(r / 2));
  }
  ds.group_names = {"a", "b"};
  ds.group_default = {{2.0, 11.0}, {4.0, 13.0}};
  ds.default_freq_mhz = {1400.0, 1400.0};
  return dataset_to_json(ds);
}

TEST(IntegerFields, CleanDatasetLoads) {
  const Dataset ds = dataset_from_json(small_dataset());
  EXPECT_EQ(ds.x.rows(), 4u);
  EXPECT_EQ(ds.x.cols(), 2u);
  EXPECT_EQ(ds.groups, (std::vector<int>{0, 0, 1, 1}));
}

TEST(IntegerFields, DatasetColsMustBeAnIntegerMatchingEveryRow) {
  // 2.5 used to load as 2, and 1e15 ended in std::bad_alloc.
  for (const double cols : {2.5, 1e15, 1e300, kInf, -2.0, 3.0}) {
    json::Value doc = small_dataset();
    doc.set("cols", cols);
    EXPECT_THROW(dataset_from_json(doc), contract_error) << "cols " << cols;
  }
}

TEST(IntegerFields, DatasetGroupIdsMustBeIntegers) {
  for (const double group : {0.5, 3e9, -3e9, kInf,
                             std::numeric_limits<double>::quiet_NaN()}) {
    json::Value doc = small_dataset();
    doc.at("groups").as_array()[1] = json::Value(group);
    EXPECT_THROW(dataset_from_json(doc), contract_error) << "group " << group;
  }
}

TEST(DatasetFile, RepeatedKeyIsRejected) {
  // A second "time_s" used to load silently, its first copy winning.
  std::string text = small_dataset().dump();
  text.insert(1, R"("time_s": [9, 9, 9, 9], )");
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "repeated_key.json")
          .string();
  std::ofstream(path) << text;
  try {
    load_dataset(path);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("repeated key \"time_s\""),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

} // namespace
} // namespace dsem::core
