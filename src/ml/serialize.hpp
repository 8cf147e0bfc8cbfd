// Regressor serialization for model artifacts (DESIGN.md §7.11).
//
// A fitted regressor streams out through json::Writer straight from its
// trees and streams back in from json::Reader tokens, with no json::Value
// in between. It round-trips bit-identically: every double serializes
// with "%.17g" (round-trip exact), 64-bit seeds as decimal strings (a
// JSON number would truncate past 2^53), and key order is fixed — so
// write → read → write is byte-equal and the restored model's
// predictions match the original bit for bit.
//
// Supported families: RandomForest and DecisionTree (the paper's selected
// regressor and its building block). Other families raise a clean
// contract_error naming the type rather than silently degrading.
#pragma once

#include <memory>

#include "common/json.hpp"
#include "ml/forest.hpp"

namespace dsem::ml {

/// Writes a fitted regressor as one JSON object: {type, params, trees}
/// for a forest, {type, params, tree} for a lone tree, each tree as
/// {"nodes": [[feature, threshold, left, right, value], ...]}. Throws
/// contract_error for unfitted models and for families without a
/// serialization (SVR, Linear, Lasso), before writing anything.
void write_regressor(json::Writer& out, const Regressor& regressor);

/// Reads what write_regressor wrote, its fields in any order (unknown
/// ones are skipped, a repeated one raises). Every integer field goes
/// through json::as_integer, and every tree through
/// DecisionTreeRegressor::from_nodes, which validates its structure
/// (child indices in range, leaf/interior consistency) before accepting
/// it; anything else malformed raises contract_error too.
std::unique_ptr<Regressor> read_regressor(json::Reader& in);

/// Columns a row needs for every split of a serializable regressor to read
/// inside it (its split_width()). Throws contract_error for the other
/// families, like write_regressor.
std::size_t split_width(const Regressor& regressor);

} // namespace dsem::ml
