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
// Trees are written straight from their stored preorder layout and read
// straight back into it (DESIGN.md §7.10): no other tree form exists, so a
// document whose trees are not in preorder, which no save writes, raises
// contract_error.
//
// Supported family: RandomForest, the paper's selected regressor. Other
// families (DecisionTree, SVR, Linear, Lasso) raise a clean contract_error
// naming the type rather than silently degrading.
#pragma once

#include <memory>

#include "common/json.hpp"
#include "ml/forest.hpp"

namespace dsem::ml {

/// Writes a fitted forest as one JSON object, {type, params, trees}, each
/// tree as {"nodes": [[feature, threshold, left, right, value], ...]} in
/// preorder: an interior node's left child is the next node and its value
/// is the mean of its training targets; a leaf is [-1, 0.0, -1, -1, value].
/// Throws contract_error for unfitted models and for the other families,
/// before writing anything.
void write_regressor(json::Writer& out, const Regressor& regressor);

/// Reads what write_regressor wrote, its fields in any order (unknown
/// ones are skipped, a repeated one raises). Every integer field goes
/// through json::as_integer; each tree is read into its own preorder
/// arrays, its interior nodes' left children checked as it goes, and
/// built through DecisionTreeRegressor::from_preorder, which checks the
/// rest of its shape. Anything malformed raises contract_error.
std::unique_ptr<Regressor> read_regressor(json::Reader& in);

/// Columns a row needs for every split of a forest to read inside it (its
/// split_width()). Throws contract_error for the other families, like
/// write_regressor.
std::size_t split_width(const Regressor& regressor);

} // namespace dsem::ml
