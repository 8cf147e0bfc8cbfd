// Split-finder equivalence and determinism for the pre-sorted training
// path (DESIGN.md §7.10).
//
// `ReferenceTree` below is the seed algorithm — per-node copies of
// (value, target) pairs, std::sort, sequential candidate chain — kept here
// as the executable specification. Its one departure from the seed is the
// threshold rule (`split_threshold`): the seed's bare midpoint could round
// onto the upper value, and the partition then never separated the node.
// The production tree must emit a bit-identical node array (features,
// thresholds, leaf means as exact doubles) on data engineered to stress
// the rewrite: heavy value ties, constant and group-constant features,
// duplicated rows, feature subsampling, min-leaf boundaries, and
// degenerate columns (adjacent doubles, ±0, subnormals, values near
// ±DBL_MAX).
#include <pthread.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/forest.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"

namespace dsem::ml {
namespace {

// --- Reference implementation (the seed's fit) ------------------------------

// scikit-learn's threshold rule: the midpoint of adjacent distinct values
// lo < hi, or `lo` when the midpoint rounds onto `hi` or is not finite.
double split_threshold(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  return std::isfinite(mid) && mid != hi ? mid : lo;
}

class ReferenceTree {
public:
  explicit ReferenceTree(TreeParams params) : params_(params) {}

  void fit(const Matrix& x, std::span<const double> y) {
    nodes_.clear();
    depth_ = 0;
    std::vector<std::size_t> indices(x.rows());
    std::iota(indices.begin(), indices.end(), 0);
    Rng rng(params_.seed);
    build(x, y, indices, 0, indices.size(), 0, rng);
  }

  std::span<const TreeNode> nodes() const { return nodes_; }
  int depth() const { return depth_; }

private:
  std::int32_t build(const Matrix& x, std::span<const double> y,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, int depth, Rng& rng) {
    depth_ = std::max(depth_, depth);
    const std::size_t n = end - begin;

    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = y[indices[i]];
      sum += v;
      sum_sq += v * v;
    }
    const double mean = sum / static_cast<double>(n);
    const double sse = sum_sq - sum * mean;

    const auto make_leaf = [&] {
      nodes_.push_back(TreeNode{-1, 0.0, -1, -1, mean});
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };

    const bool depth_capped =
        params_.max_depth > 0 && depth >= params_.max_depth;
    if (n < static_cast<std::size_t>(params_.min_samples_split) ||
        depth_capped || sse <= 1e-12) {
      return make_leaf();
    }

    const std::size_t k = x.cols();
    std::vector<std::size_t> features(k);
    std::iota(features.begin(), features.end(), 0);
    std::size_t tries = k;
    if (params_.max_features > 0 &&
        static_cast<std::size_t>(params_.max_features) < k) {
      tries = static_cast<std::size_t>(params_.max_features);
      for (std::size_t i = 0; i < tries; ++i) {
        const std::size_t j = i + rng.uniform_int(k - i);
        std::swap(features[i], features[j]);
      }
    }

    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = sse;
    const auto min_leaf = static_cast<std::size_t>(params_.min_samples_leaf);

    std::vector<std::pair<double, double>> column(n);
    for (std::size_t fi = 0; fi < tries; ++fi) {
      const std::size_t f = features[fi];
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = indices[begin + i];
        column[i] = {x(idx, f), y[idx]};
      }
      std::sort(column.begin(), column.end());
      if (column.front().first == column.back().first) {
        continue;
      }
      double left_sum = 0.0;
      double left_sq = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_sum += column[i].second;
        left_sq += column[i].second * column[i].second;
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < min_leaf || nr < min_leaf) {
          continue;
        }
        if (column[i].first == column[i + 1].first) {
          continue;
        }
        const double right_sum = sum - left_sum;
        const double right_sq = sum_sq - left_sq;
        const double sse_left =
            left_sq - left_sum * left_sum / static_cast<double>(nl);
        const double sse_right =
            right_sq - right_sum * right_sum / static_cast<double>(nr);
        const double score = sse_left + sse_right;
        if (score < best_score - 1e-12) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold =
              split_threshold(column[i].first, column[i + 1].first);
        }
      }
    }

    if (best_feature < 0) {
      return make_leaf();
    }

    const auto mid_it =
        std::partition(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                       indices.begin() + static_cast<std::ptrdiff_t>(end),
                       [&](std::size_t idx) {
                         return x(idx, static_cast<std::size_t>(
                                           best_feature)) <= best_threshold;
                       });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());

    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(TreeNode{best_feature, best_threshold, -1, -1, mean});
    const std::int32_t left = build(x, y, indices, begin, mid, depth + 1, rng);
    const std::int32_t right = build(x, y, indices, mid, end, depth + 1, rng);
    nodes_[static_cast<std::size_t>(node_id)].left = left;
    nodes_[static_cast<std::size_t>(node_id)].right = right;
    return node_id;
  }

  TreeParams params_;
  std::vector<TreeNode> nodes_;
  int depth_ = 0;
};

// Random dataset with engineered pathologies: values snapped to a coarse
// grid (ties within and across rows), one constant feature, one feature
// duplicating another, and occasional duplicated targets.
std::pair<Matrix, std::vector<double>> tricky_data(std::size_t n,
                                                   std::size_t k,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, k);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      // ~8 distinct values per feature: plenty of exact ties.
      x(i, j) = std::floor(rng.uniform(0.0, 8.0));
    }
    if (k >= 2) {
      x(i, k - 2) = 3.5; // constant feature
    }
    if (k >= 3) {
      x(i, k - 1) = x(i, 0); // duplicate of feature 0
    }
    y[i] = x(i, 0) * 2.0 - x(i, 1 % k) + std::floor(rng.uniform(0.0, 4.0));
  }
  return {std::move(x), std::move(y)};
}

// Degenerate columns, each a known way for a midpoint threshold to miss
// the split it stands for: a run of n adjacent doubles (every vector
// distinct), a short tie-heavy run of 4 adjacent doubles, a constant
// column, ±0 mixed with subnormals, and values near ±DBL_MAX whose
// midpoints overflow. Targets are a shuffled 0..n-1 plus a jitter:
// distinct, at least 0.5 apart, and generic enough that some split always
// separates a mixed node.
std::pair<Matrix, std::vector<double>> degenerate_data(std::size_t n,
                                                       std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  const auto ulps = [](double base, std::size_t steps) {
    for (std::size_t s = 0; s < steps; ++s) {
      base = std::nextafter(base, kInf);
    }
    return base;
  };
  Rng rng(seed);
  // Seeds alternate the mantissa parity the long run starts on; both runs
  // step through both parities.
  double base = rng.uniform(-4.0, 4.0);
  if ((std::bit_cast<std::uint64_t>(base) & 1) != seed % 2) {
    base = ulps(base, 1);
  }
  const double short_base = rng.uniform(0.5, 2.0);
  const double constant = rng.uniform(-1.0, 1.0);
  const double signed_zeros[] = {-0.0, 0.0,   -kTiny, kTiny, 2 * kTiny,
                                 kMin, -kMin, std::nextafter(kMin, 0.0)};
  const double huge[] = {kMax,    -kMax,    std::nextafter(kMax, 0.0),
                         1.6e308, 1.7e308,  -1.6e308,
                         -1.7e308, 0.0};

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  }
  Matrix x(n, 5);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = ulps(base, order[i]);
    x(i, 1) = ulps(short_base, rng.uniform_int(4));
    x(i, 2) = constant;
    x(i, 3) = signed_zeros[rng.uniform_int(std::size(signed_zeros))];
    x(i, 4) = huge[rng.uniform_int(std::size(huge))];
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<double>(order[i]) + rng.uniform(0.0, 0.5);
  }
  return {std::move(x), std::move(y)};
}

// LiGen-shaped data: three domain columns that are constant within each
// group of a Cartesian product (an input tuple's domain features), a clock
// swept over `clocks` steps for every group, and each (group, clock) row
// measured twice, often to the same target. The columns in `clock_cols`
// carry the clock; every other column c carries domain factor c % 3,
// scaled per column, so deep nodes see most columns constant.
std::pair<Matrix, std::vector<double>>
grouped_data(std::size_t k, const std::vector<std::size_t>& clock_cols,
             std::size_t clocks, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t levels[3] = {2 + seed % 3, 3, 2 + seed % 2};
  constexpr std::size_t kReps = 2;
  const std::size_t n = levels[0] * levels[1] * levels[2] * clocks * kReps;
  Matrix x(n, k);
  std::vector<double> y(n);
  std::size_t r = 0;
  for (std::size_t a = 0; a < levels[0]; ++a) {
    for (std::size_t b = 0; b < levels[1]; ++b) {
      for (std::size_t c = 0; c < levels[2]; ++c) {
        const double domain[3] = {static_cast<double>(a),
                                  static_cast<double>(b),
                                  static_cast<double>(c)};
        const double work = 1.0 + domain[0] + 2.0 * domain[1] +
                            0.5 * domain[2] * domain[2];
        for (std::size_t step = 0; step < clocks; ++step) {
          const double clock = 600.0 + 25.0 * static_cast<double>(step);
          for (std::size_t rep = 0; rep < kReps; ++rep, ++r) {
            for (std::size_t col = 0; col < k; ++col) {
              const bool is_clock =
                  std::find(clock_cols.begin(), clock_cols.end(), col) !=
                  clock_cols.end();
              x(r, col) = is_clock ? clock
                                   : (domain[col % 3] + 1.0) *
                                         static_cast<double>(col + 1);
            }
            y[r] = work * 1000.0 / clock +
                   0.25 * std::floor(rng.uniform(0.0, 3.0));
          }
        }
      }
    }
  }
  return {std::move(x), std::move(y)};
}

void expect_identical_trees(const ReferenceTree& ref,
                            const DecisionTreeRegressor& tree,
                            std::uint64_t seed) {
  ASSERT_EQ(ref.nodes().size(), tree.node_count()) << "seed " << seed;
  EXPECT_EQ(ref.depth(), tree.depth()) << "seed " << seed;
  const std::vector<TreeNode> nodes = tree.to_nodes();
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const TreeNode& a = ref.nodes()[i];
    const TreeNode& b = nodes[i];
    ASSERT_EQ(a.feature, b.feature) << "node " << i << " seed " << seed;
    ASSERT_EQ(a.left, b.left) << "node " << i << " seed " << seed;
    ASSERT_EQ(a.right, b.right) << "node " << i << " seed " << seed;
    // Bitwise: thresholds and leaf means must be the exact same doubles.
    ASSERT_EQ(a.threshold, b.threshold) << "node " << i << " seed " << seed;
    ASSERT_EQ(a.value, b.value) << "node " << i << " seed " << seed;
  }
}

// Fits the reference and the production tree on (x, y), checks their node
// arrays and predictions for bit equality, and returns the production tree.
DecisionTreeRegressor expect_matches_reference(const Matrix& x,
                                               std::span<const double> y,
                                               const TreeParams& params,
                                               std::uint64_t seed) {
  ReferenceTree ref(params);
  ref.fit(x, y);
  DecisionTreeRegressor tree(params);
  tree.fit(x, y);
  expect_identical_trees(ref, tree, seed);
  if (::testing::Test::HasFatalFailure()) {
    return tree;
  }

  // Same traversal, same leaves: predictions are bit-identical too.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double out = 0.0;
    std::size_t node = 0;
    for (;;) {
      const TreeNode& nd = ref.nodes()[node];
      if (nd.feature < 0) {
        out = nd.value;
        break;
      }
      node = static_cast<std::size_t>(
          x(r, static_cast<std::size_t>(nd.feature)) <= nd.threshold
              ? nd.left
              : nd.right);
    }
    EXPECT_EQ(out, tree.predict_one(x.row(r)))
        << "row " << r << " seed " << seed;
  }
  return tree;
}

// --- Equivalence property tests ---------------------------------------------

TEST(TreePresort, MatchesReferenceOnRandomTrickyData) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::size_t n = 20 + static_cast<std::size_t>(seed % 7) * 33;
    const std::size_t k = 3 + seed % 3;

    TreeParams params;
    params.seed = seed * 17;
    if (seed % 3 == 1) {
      params.min_samples_leaf = 3;
    }
    if (seed % 4 == 2) {
      params.max_depth = 4;
    }
    if (seed % 5 == 3) {
      params.max_features = 2; // exercises the RNG subsampling path
    }

    const auto [x, y] = tricky_data(n, k, seed);
    expect_matches_reference(x, y, params, seed);

    // The degenerate columns, under the seed's parameters and fully grown.
    // Every row of those has a distinct feature vector, so an unlimited
    // tree without bootstrap must reproduce each training target.
    const auto [dx, dy] = degenerate_data(n, seed);
    expect_matches_reference(dx, dy, params, seed);
    TreeParams full;
    full.seed = params.seed;
    const DecisionTreeRegressor tree =
        expect_matches_reference(dx, dy, full, seed);
    for (std::size_t r = 0; r < dx.rows(); ++r) {
      ASSERT_EQ(tree.predict_one(dx.row(r)), dy[r])
          << "row " << r << " seed " << seed;
    }
  }
}

// A bootstrap-sample fit on the shared presort must equal the reference
// tree fitted on the materialized resample.
void expect_sample_fit_matches_reference(const Matrix& x,
                                         std::span<const double> y,
                                         const TreeParams& params,
                                         std::uint64_t seed) {
  Rng rng(seed * 31);
  std::vector<std::size_t> sample(x.rows());
  for (auto& idx : sample) {
    idx = rng.uniform_int(x.rows());
  }
  std::vector<double> yb(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    yb[i] = y[sample[i]];
  }
  ReferenceTree ref(params);
  ref.fit(x.gather_rows(sample), yb);
  const auto ps = detail::Presorted::build(x, y);
  DecisionTreeRegressor tree(params);
  tree.fit_presorted(ps, y, sample);
  expect_identical_trees(ref, tree, seed);
}

// Group-constant columns drop out of a node's scans and partitions once
// its stream has equal ends, and the winning stream stays in its buffer:
// the trees must still be the reference's, node for node. The 70-column
// case puts constant and clock columns on both sides of index 64.
TEST(TreePresort, MatchesReferenceOnGroupConstantColumns) {
  const auto check = [](std::size_t k,
                        const std::vector<std::size_t>& clock_cols,
                        std::uint64_t seed) {
    const auto [x, y] = grouped_data(k, clock_cols, 4 + seed % 5, seed);
    for (const int max_features : {0, 2}) {
      for (const int min_leaf : {1, 3}) {
        TreeParams params;
        params.seed = seed * 13;
        params.max_features = max_features;
        params.min_samples_leaf = min_leaf;
        if (seed % 4 == 2) {
          params.max_depth = 5;
        }
        expect_matches_reference(x, y, params, seed);
        expect_sample_fit_matches_reference(x, y, params, seed);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  };
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    check(4, {3}, seed);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "k 4 seed " << seed;
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check(70, {3, 66}, seed);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "k 70 seed " << seed;
  }
}

// Nodes wider than one 512-entry block of the split scan, on streams with
// few run ends: each of the 4 features takes 2 to 5 distinct values (one
// of them exactly 2), so from n = 1100 on some blocks of a root stream
// hold no run end at all. Feature 0's top value is held by exactly `top`
// rows with outlying targets: the root's feature-0 stream has a run end at
// the last admissible position n - top - 1, and that split wins the root.
std::pair<Matrix, std::vector<double>>
few_valued_data(std::size_t n, std::size_t top, std::uint64_t seed) {
  constexpr std::size_t k = 4;
  Rng rng(seed);
  Matrix x(n, k);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t distinct = 2 + (seed + j) % 4;
      const std::size_t low = j == 0 ? distinct - 1 : distinct;
      x(i, j) = static_cast<double>(rng.uniform_int(low));
    }
    y[i] = 3.0 * x(i, 0) + x(i, 1) * x(i, 2) - x(i, 3) +
           std::floor(rng.uniform(0.0, 3.0));
  }
  for (std::size_t i = 0; i < top; ++i) {
    x(i, 0) = 10.0;
    y[i] += 1e4;
  }
  return {std::move(x), std::move(y)};
}

TEST(TreePresort, MatchesReferenceAcrossScanBlocks) {
  for (const std::size_t n : {513u, 1100u, 2000u}) {
    for (const int min_leaf : {1, 7}) {
      for (const int max_features : {0, 2}) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          const auto [x, y] =
              few_valued_data(n, static_cast<std::size_t>(min_leaf), seed);
          TreeParams params;
          params.seed = seed * 7 + n;
          params.min_samples_leaf = min_leaf;
          params.max_features = max_features;
          const DecisionTreeRegressor tree =
              expect_matches_reference(x, y, params, seed);
          ASSERT_FALSE(::testing::Test::HasFatalFailure())
              << "n " << n << " min_leaf " << min_leaf << " max_features "
              << max_features << " seed " << seed;
          if (max_features == 0) { // the root splits off the top rows
            const TreeNode root = tree.to_nodes().front();
            EXPECT_EQ(root.feature, 0) << "n " << n << " seed " << seed;
            EXPECT_GT(root.threshold, 4.0) << "n " << n << " seed " << seed;
          }
          expect_sample_fit_matches_reference(x, y, params, seed);
          ASSERT_FALSE(::testing::Test::HasFatalFailure())
              << "bootstrap n " << n << " min_leaf " << min_leaf
              << " max_features " << max_features << " seed " << seed;
        }
      }
    }
  }
}

TEST(TreePresort, MatchesReferenceOnContinuousData) {
  // No ties at all: the pure fast path.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    const std::size_t n = 200;
    Matrix x(n, 4);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        x(i, j) = rng.uniform(-10.0, 10.0);
      }
      y[i] = std::sin(x(i, 0)) + 0.2 * x(i, 1) * x(i, 2) +
             rng.normal(0.0, 0.05);
    }
    TreeParams params;
    params.seed = seed;
    ReferenceTree ref(params);
    ref.fit(x, y);
    DecisionTreeRegressor tree(params);
    tree.fit(x, y);
    expect_identical_trees(ref, tree, seed);
  }
}

// --- Termination on midpoints that miss the split ---------------------------
//
// Two rows, targets {0, 1}, one split between lo < hi whose midpoint is not
// strictly between them. A partition by `x <= midpoint` sends both rows
// left and re-splits the same node forever, so these tests rely on the
// ctest TIMEOUT of tests/CMakeLists.txt. The split must separate the rows,
// with the threshold on the lower value.

void expect_two_row_split(double lo, double hi) {
  Matrix x(2, 1);
  x(0, 0) = lo;
  x(1, 0) = hi;
  const std::vector<double> y{0.0, 1.0};
  DecisionTreeRegressor tree(TreeParams{});
  tree.fit(x, y);
  ASSERT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.nodes()[0].threshold),
            std::bit_cast<std::uint64_t>(lo));
  EXPECT_EQ(tree.predict_one(x.row(0)), 0.0);
  EXPECT_EQ(tree.predict_one(x.row(1)), 1.0);
}

TEST(TreePresort, SplitTerminatesWhenMidpointRoundsOntoHi) {
  // The midpoint of adjacent doubles ties and rounds to even: onto hi.
  const double lo = std::nextafter(1.0, 2.0);
  expect_two_row_split(lo, std::nextafter(lo, 2.0));
}

TEST(TreePresort, SplitTerminatesWhenMidpointIsNegativeZero) {
  // -denorm_min / 2 rounds to -0.0, which compares equal to hi = 0.0.
  expect_two_row_split(-std::numeric_limits<double>::denorm_min(), 0.0);
}

TEST(TreePresort, SplitTerminatesWhenMidpointOverflows) {
  // lo + hi overflows, so the midpoint is +inf.
  expect_two_row_split(1.6e308, 1.7e308);
}

/// Runs `fn` on a fresh thread whose stack is `stack_bytes` long.
void run_on_stack(std::size_t stack_bytes, std::function<void()> fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  const int created = pthread_create(
      &thread, &attr,
      [](void* p) -> void* {
        (*static_cast<std::function<void()>*>(p))();
        return nullptr;
      },
      &fn);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(created, 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
}

TEST(TreePresort, DeepTreeFitsOnASmallThreadStack) {
  // Alternating targets over one feature: every split peels one sample off
  // an end, so the tree is a chain about as deep as the data is long. A
  // frame per level would need far more than the 256 KB stack below;
  // the fit must not depend on the stack of the thread that runs it.
  constexpr std::size_t n = 3000;
  Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i % 2);
  }
  TreeParams params;
  params.seed = 5;
  DecisionTreeRegressor tree(params);
  run_on_stack(256 * 1024, [&] { tree.fit(x, y); });
  EXPECT_GT(tree.depth(), 1000);
  // Every leaf is pure, so the tree reproduces its training targets. (The
  // recursive ReferenceTree is no oracle here: it needs the deep stack.)
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(tree.predict_one(x.row(i)), y[i]) << "row " << i;
  }
}

TEST(TreePresort, BootstrapExpansionMatchesGatheredFit) {
  // fit_presorted(ps, y, sample) must equal fit() on the materialized
  // resample — the forest fast path vs the seed's gather_rows route.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto [x, y] = tricky_data(120, 4, seed);
    Rng rng(seed * 31);
    std::vector<std::size_t> sample(x.rows());
    for (auto& idx : sample) {
      idx = rng.uniform_int(x.rows());
    }

    TreeParams params;
    params.seed = seed;
    const auto ps = detail::Presorted::build(x, y);
    DecisionTreeRegressor fast(params);
    fast.fit_presorted(ps, y, sample);

    const Matrix xb = x.gather_rows(sample);
    std::vector<double> yb(sample.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      yb[i] = y[sample[i]];
    }
    DecisionTreeRegressor direct(params);
    direct.fit(xb, yb);

    ASSERT_EQ(direct.node_count(), fast.node_count()) << "seed " << seed;
    const std::vector<TreeNode> direct_nodes = direct.to_nodes();
    const std::vector<TreeNode> fast_nodes = fast.to_nodes();
    for (std::size_t i = 0; i < fast.node_count(); ++i) {
      const TreeNode& a = direct_nodes[i];
      const TreeNode& b = fast_nodes[i];
      ASSERT_EQ(a.feature, b.feature) << "node " << i;
      ASSERT_EQ(a.threshold, b.threshold) << "node " << i;
      ASSERT_EQ(a.value, b.value) << "node " << i;
      ASSERT_EQ(a.left, b.left) << "node " << i;
      ASSERT_EQ(a.right, b.right) << "node " << i;
    }
  }
}

// --- Pool-size determinism --------------------------------------------------

// Big enough that each tree builds thousands of nodes, the largest of them
// thousands of rows wide.
std::pair<Matrix, std::vector<double>> big_data(std::size_t n) {
  Rng rng(7);
  Matrix x(n, 4);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      x(i, j) = rng.uniform(0.0, 10.0);
      acc += (j + 1.0) * x(i, j);
    }
    y[i] = acc + std::sin(acc) + rng.normal(0.0, 0.1);
  }
  return {std::move(x), std::move(y)};
}

TEST(TreePresort, ForestIsIdenticalForPools1_2_8) {
  // Continuous columns, and LiGen-shaped ones that turn constant deep in
  // every tree.
  const std::pair<Matrix, std::vector<double>> datasets[] = {
      big_data(6000), grouped_data(4, {3}, 100, 5)};
  for (const auto& [x, y] : datasets) {
    std::vector<std::vector<double>> outputs;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ScopedGlobalPool pool(threads);
      ForestParams params;
      params.n_estimators = 5;
      RandomForestRegressor forest(params);
      forest.fit(x, y);
      outputs.push_back(forest.predict_many(x));
    }
    ASSERT_EQ(outputs[0].size(), x.rows());
    EXPECT_EQ(outputs[0], outputs[1]);
    EXPECT_EQ(outputs[0], outputs[2]);
  }
}

// A forest's one level of parallelism is its trees: a lone tree builds on
// the calling thread, presort and large nodes included, on any pool.
TEST(TreePresort, LoneTreeFitRunsNoPoolTasks) {
  const auto [x, y] = big_data(6000);
  ScopedGlobalPool pool(4);
  metrics::Registry::global().clear();
  metrics::set_enabled(true);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
  metrics::set_enabled(false);
  metrics::Registry::global().clear();

  EXPECT_GT(tree.node_count(), 1000u);
  EXPECT_FALSE(snapshot.histograms.empty()); // the metering was on
  for (const metrics::CounterSnapshot& c : snapshot.counters) {
    EXPECT_NE(c.name, "pool.tasks");
    EXPECT_NE(c.name, "pool.steals");
  }
}

TEST(TreePresort, SvrIsIdenticalForPools1_2_8) {
  const auto [x, y] = big_data(300);
  std::vector<std::vector<double>> outputs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScopedGlobalPool pool(threads);
    SvrRbf svr(100.0, 0.01, 1.0, 50, 1e-5);
    svr.fit(x, y);
    outputs.push_back(svr.predict(x));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
}

// --- Batch prediction -------------------------------------------------------

TEST(PredictMany, MatchesPredictOneBitwise) {
  const auto [x, y] = big_data(600);
  ForestParams params;
  params.n_estimators = 8;
  RandomForestRegressor forest(params);
  forest.fit(x, y);

  const std::vector<double> batch = forest.predict_many(x);
  ASSERT_EQ(batch.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    ASSERT_EQ(batch[r], forest.predict_one(x.row(r))) << "row " << r;
  }

  SvrRbf svr(100.0, 0.01, 1.0, 50);
  svr.fit(x, y);
  const std::vector<double> svr_batch = svr.predict_many(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    ASSERT_EQ(svr_batch[r], svr.predict_one(x.row(r))) << "row " << r;
  }
}

} // namespace
} // namespace dsem::ml
