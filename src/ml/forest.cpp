#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace dsem::ml {

namespace {

// A node still to visit in one tree's sweep walk. The sorted values that
// reach it are the unassigned ones, from the walk's cursor on, that pass
// `x <= bound`; on the tree's rightmost path (`open`, no left turn taken
// at a last-column split yet) that is all of them, NaN included.
struct SweepNode {
  std::int32_t node = 0;
  bool open = true;
  double bound = 0.0;
};

// Adds one tree's leaf value to acc[i] for every sorted[i] (ascending, NaN
// last; at least one value), in one walk. Splits on a prefix column route
// the node's whole run of values the way predict_one routes each of its
// rows. A split on the last column forks: the values with `x <= threshold`
// are a prefix of the run (NaN compares false, like the largest value) and
// go left, the rest go right. Left before right, the leaves reached are the
// tree's piecewise-constant function of the last column, in order, and the
// walk merges the sorted values into it: a leaf takes the run of values
// from the cursor that pass its bound. A side no value reaches is never
// entered, which prunes the walk to the query span.
void accumulate_sweep(const PackedNode* nodes, std::span<const double> prefix,
                      std::span<const double> sorted, std::span<double> acc,
                      std::vector<SweepNode>& pending) {
  const std::size_t n = sorted.size();
  const auto last = static_cast<unsigned>(prefix.size());
  std::size_t pos = 0; // sorted[0, pos) already hold this tree's value
  SweepNode s;
  pending.clear();
  for (;;) {
    const PackedNode* t = nodes + s.node;
    // Leaves (feature -1) wrap to a huge unsigned; only prefix splits pass.
    // A left child is the next node (preorder).
    while (static_cast<unsigned>(t->feature) < last) {
      const double x = prefix[static_cast<std::size_t>(t->feature)];
      t = x <= t->threshold ? t + 1 : nodes + t->right;
    }
    if (t->feature >= 0) {
      const double threshold = t->threshold;
      const double left_bound =
          (s.open || !(threshold > s.bound)) ? threshold : s.bound;
      if (sorted[pos] <= left_bound) {
        pending.push_back({t->right, s.open, s.bound});
        s = {static_cast<std::int32_t>(t - nodes) + 1, false, left_bound};
      } else {
        s.node = t->right; // no value goes left: the whole run goes right
      }
      continue;
    }
    const double value = t->threshold; // a leaf keeps its value there
    do {
      acc[pos] += value;
      ++pos;
    } while (pos < n && (s.open || sorted[pos] <= s.bound));
    do {
      if (pos == n || pending.empty()) {
        return;
      }
      s = pending.back();
      pending.pop_back();
    } while (!s.open && !(sorted[pos] <= s.bound));
  }
}

} // namespace

RandomForestRegressor::RandomForestRegressor(ForestParams params)
    : params_(params) {
  DSEM_ENSURE(params.n_estimators > 0, "n_estimators must be positive");
}

void RandomForestRegressor::fit(const Matrix& x, std::span<const double> y) {
  DSEM_ENSURE(x.rows() == y.size(), "fit: X/y size mismatch");
  DSEM_ENSURE(x.rows() > 0, "fit: empty dataset");
  metrics::ScopedTimer timer("ml.forest.fit_s");
  const std::size_t n = x.rows();
  const auto n_trees = static_cast<std::size_t>(params_.n_estimators);

  TreeParams tp;
  tp.max_depth = params_.max_depth;
  tp.min_samples_split = params_.min_samples_split;
  tp.min_samples_leaf = params_.min_samples_leaf;
  tp.max_features = params_.max_features;

  // The old model goes first, and the new one is only installed whole: a
  // fit that throws leaves the forest unfitted, so every tree a fitted
  // forest walks has nodes.
  trees_.clear();
  split_width_ = 0;
  std::vector<DecisionTreeRegressor> trees(n_trees, DecisionTreeRegressor(tp));

  // Sort every feature once and share the result: each tree re-sorts its
  // bootstrap in O(k·n) from this order instead of O(k·n log n) from
  // scratch (DESIGN.md §7.10).
  const auto presorted = detail::Presorted::build(x, y);

  // Derive one independent seed per tree up front so results do not depend
  // on scheduling order (CP.2: no shared mutable RNG across tasks).
  SplitMix64 seeder(params_.seed);
  std::vector<std::uint64_t> seeds(n_trees);
  for (auto& s : seeds) {
    s = seeder.next();
  }

  parallel_for(0, n_trees, [&](std::size_t t) {
    Rng rng(seeds[t]);
    TreeParams tree_params = tp;
    tree_params.seed = rng();

    // One bootstrap buffer per worker thread, fully rewritten per tree:
    // a forest draws hundreds of samples back to back, and the per-tree
    // allocation shows up on small fits where the draw itself is cheap.
    static thread_local std::vector<std::size_t> sample;
    sample.resize(n);
    if (params_.bootstrap) {
      for (auto& idx : sample) {
        idx = rng.uniform_int(n);
      }
    } else {
      std::iota(sample.begin(), sample.end(), 0);
    }
    DecisionTreeRegressor tree(tree_params);
    tree.fit_presorted(presorted, y, sample);
    trees[t] = std::move(tree);
  });
  for (const DecisionTreeRegressor& tree : trees) {
    split_width_ = std::max(split_width_, tree.split_width());
  }
  trees_ = std::move(trees);
}

RandomForestRegressor
RandomForestRegressor::from_trees(ForestParams params,
                                  std::vector<DecisionTreeRegressor> trees) {
  DSEM_ENSURE(trees.size() == static_cast<std::size_t>(params.n_estimators),
              "from_trees: tree count does not match n_estimators");
  RandomForestRegressor forest(params);
  for (const DecisionTreeRegressor& tree : trees) {
    DSEM_ENSURE(tree.node_count() > 0, "from_trees: unfitted tree");
    forest.split_width_ = std::max(forest.split_width_, tree.split_width());
  }
  forest.trees_ = std::move(trees);
  return forest;
}

// The tree walks below are unchecked: every tree of a fitted forest has
// nodes, and the row width is checked once against the forest's
// split_width() instead of per tree and row.
double RandomForestRegressor::predict_one(std::span<const double> x) const {
  DSEM_ENSURE(!trees_.empty(), "predict on unfitted RandomForestRegressor");
  DSEM_ENSURE(x.size() >= split_width_,
              "predict: row narrower than the forest's split features");
  double acc = 0.0;
  for (const auto& tree : trees_) {
    acc += leaf_value(tree.nodes().data(), x.data());
  }
  return acc / static_cast<double>(trees_.size());
}

std::vector<double> RandomForestRegressor::predict_many(const Matrix& x) const {
  DSEM_ENSURE(!trees_.empty(), "predict on unfitted RandomForestRegressor");
  DSEM_ENSURE(x.rows() == 0 || x.cols() >= split_width_,
              "predict: row narrower than the forest's split features");
  std::vector<double> out(x.rows(), 0.0);
  const auto run = [&](std::size_t lo, std::size_t hi) {
    // Tree-outer: one tree's node array stays hot across the whole chunk.
    // Each row still sums trees in ascending order — the predict_one sum.
    for (const auto& tree : trees_) {
      const PackedNode* nodes = tree.nodes().data();
      for (std::size_t r = lo; r < hi; ++r) {
        out[r] += leaf_value(nodes, x.row(r).data());
      }
    }
    const auto scale = static_cast<double>(trees_.size());
    for (std::size_t r = lo; r < hi; ++r) {
      out[r] /= scale;
    }
  };
  if (x.rows() >= kParallelPredictMinRows) {
    parallel_for_chunks(ThreadPool::global(), 0, x.rows(), run);
  } else {
    run(0, x.rows());
  }
  return out;
}

std::vector<double>
RandomForestRegressor::predict_sweep(std::span<const double> prefix,
                                     std::span<const double> values) const {
  DSEM_ENSURE(!trees_.empty(), "predict on unfitted RandomForestRegressor");
  DSEM_ENSURE(prefix.size() + 1 >= split_width_,
              "predict: row narrower than the forest's split features");
  const std::size_t n = values.size();
  if (n == 0) {
    return {};
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b] ||
           (!std::isnan(values[a]) && std::isnan(values[b]));
  });
  std::vector<double> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i] = values[order[i]];
  }

  // Each sorted slot gains exactly one leaf value per tree, in ascending
  // tree order, and is divided once at the end: predict_many's sum.
  std::vector<double> acc(n, 0.0);
  std::vector<SweepNode> pending;
  for (const auto& tree : trees_) {
    accumulate_sweep(tree.nodes().data(), prefix, sorted, acc, pending);
  }
  const auto scale = static_cast<double>(trees_.size());
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[order[i]] = acc[i] / scale;
  }
  return out;
}

} // namespace dsem::ml
