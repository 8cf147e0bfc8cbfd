// Regressor serialization for model artifacts (DESIGN.md §7.11).
//
// A fitted regressor round-trips through json::Value bit-identically:
// every double serializes with "%.17g" (round-trip exact), 64-bit seeds
// as decimal strings (a JSON number would truncate past 2^53), and key
// order is fixed — so serialize → parse → re-serialize is byte-equal and
// the restored model's predictions match the original bit for bit.
//
// Supported families: RandomForest and DecisionTree (the paper's selected
// regressor and its building block). Other families raise a clean
// contract_error naming the type rather than silently degrading.
#pragma once

#include <memory>

#include "common/json.hpp"
#include "ml/forest.hpp"

namespace dsem::ml {

/// Serializes a fitted regressor. Throws contract_error for unfitted
/// models and for families without a serialization (SVR, Linear, Lasso).
json::Value regressor_to_json(const Regressor& regressor);

/// Rebuilds a regressor from regressor_to_json output. Validates the tree
/// structure (child indices in range, leaf/interior consistency) before
/// accepting it.
std::unique_ptr<Regressor> regressor_from_json(const json::Value& value);

/// Columns a row needs for every split of a serializable regressor to read
/// inside it (its split_width()). Throws contract_error for the other
/// families, like regressor_to_json.
std::size_t split_width(const Regressor& regressor);

} // namespace dsem::ml
