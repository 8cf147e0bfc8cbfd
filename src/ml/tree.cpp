#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace dsem::ml {

namespace {

// A candidate split for one feature: the best score found by scanning that
// feature's sorted stream, chained from the node SSE with the same strict
// `score < best - 1e-12` improvement rule `split_node` applies across
// features, and the stream position it splits after: entries
// [0, position] go left. The partition and the threshold both follow it.
struct Candidate {
  double score = 0.0;
  std::size_t position = 0;
  bool valid = false;
};

// The threshold of a split between adjacent stream values lo < hi, by
// scikit-learn's rule: the midpoint, or `lo` when the midpoint rounds onto
// `hi` or is not finite (overflow). Then `x <= threshold` routes every
// training row to the side the build sent it.
double split_threshold(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  return std::isfinite(mid) && mid != hi ? mid : lo;
}

// A feature's state byte in a pending node (Workspace::state) is the
// buffer that holds its stream, 0 or 1, or this once the stream is
// constant.
constexpr std::uint8_t kConstantFeature = 2;

// Scans one feature's sorted stream for the best split position of a node
// holding entries [0, n). A constant stream yields no split (every adjacent
// pair ties); split_node drops those before scanning. The stream carries
// values and row ids; targets are gathered through the row id
// (`targets[rows[i]]` is the very double a dedicated target stream would
// hold, so dropping that stream changes no bit — it only saves 16 bytes
// per entry per level of partition traffic).
// Prefix sums accumulate targets in stream order — sorted by
// (value, target) exactly like the seed's per-node `std::sort` of
// (value, target) pairs, so every candidate's left/right SSE is
// bit-identical to the seed's.
//
// A split can only fall at a run end, a position i with
// value[i] != value[i + 1], and tie-heavy streams (domain features with a
// handful of distinct values, bootstrap streams that repeat rows) have few
// of them: a Fig. 13 run streams 3.25e9 positions, and 9.6 % of them are
// run ends. So the scan runs in L1-resident blocks of three passes. The
// serial prefix chain adds every target and keeps (left sum, left square
// sum, position) only at run ends, by a branchless compaction: it writes
// slot k and advances k on a run end. The score pass, which the compiler
// vectorizes (packed divisions are the expensive op), scores the kept
// entries only, and the seed's strict `< best - 1e-12` chain selects among
// them in stream order. Each candidate's sums, score and selection are the
// seed's IEEE operations, so the tree is bit-identical.
constexpr std::size_t kScanBlock = 512;

// The score pass over one block's run ends. The position is an exact
// integer-valued double, so nl and nr are exactly the doubles the seed's
// integer counts convert to. Cloned for AVX2 (runtime-dispatched, so the
// baseline build still runs everywhere): the packed divisions bound this
// loop and wider vectors retire more of them per dispatch. Safe to widen
// because every lane is the same IEEE expression — and no product here
// feeds an add, so no FMA contraction can exist in any clone.
//
// Not under ThreadSanitizer: target_clones dispatches through an IFUNC
// resolver, which the dynamic loader runs before the TSan runtime is
// initialized, so every instrumented binary linking this file would crash
// at startup. TSan builds keep the default clone only.
#if !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("default", "avx2")))
#endif
void score_block(const double* ls, const double* lq, const double* pos,
                 double* sc, std::size_t count, double n, double sum,
                 double sum_sq) {
  for (std::size_t e = 0; e < count; ++e) {
    const double nl = pos[e] + 1.0;
    const double nr = n - nl;
    const double right_sum = sum - ls[e];
    const double right_sq = sum_sq - lq[e];
    const double sse_left = lq[e] - ls[e] * ls[e] / nl;
    const double sse_right = right_sq - right_sum * right_sum / nr;
    sc[e] = sse_left + sse_right;
  }
}

Candidate scan_feature(const double* value, const std::uint32_t* rows,
                       const double* targets, std::size_t n,
                       std::size_t min_leaf, double sum, double sum_sq,
                       double node_sse) {
  Candidate out;
  if (n < 2 * min_leaf) {
    return out; // no admissible split
  }

  double left_sum = 0.0;
  double left_sq = 0.0;
  double best_score = node_sse; // must strictly improve on no-split
  std::size_t i = 0;
  for (; i + 1 < min_leaf; ++i) { // too few on the left to be a candidate
    const double t = targets[rows[i]];
    left_sum += t;
    left_sq += t * t;
  }
  const std::size_t last = n - min_leaf; // i >= last starves the right side

  alignas(64) double ls[kScanBlock];
  alignas(64) double lq[kScanBlock];
  alignas(64) double pos[kScanBlock];
  alignas(64) double sc[kScanBlock];
  for (std::size_t b = i; b < last; b += kScanBlock) {
    const std::size_t end = std::min(b + kScanBlock, last);
    std::size_t count = 0;
    double p = static_cast<double>(b);
    for (std::size_t j = b; j < end; ++j, p += 1.0) { // the prefix chain
      const double t = targets[rows[j]];
      left_sum += t;
      left_sq += t * t;
      ls[count] = left_sum;
      lq[count] = left_sq;
      pos[count] = p;
      count += value[j] != value[j + 1];
    }
    score_block(ls, lq, pos, sc, count, static_cast<double>(n), sum, sum_sq);
    for (std::size_t e = 0; e < count; ++e) {
      if (sc[e] < best_score - 1e-12) {
        best_score = sc[e];
        out.position = static_cast<std::size_t>(pos[e]);
        out.valid = true;
      }
    }
  }
  out.score = best_score;
  return out;
}

} // namespace

namespace detail {

Presorted Presorted::build(const Matrix& x, std::span<const double> y) {
  DSEM_ENSURE(x.rows() == y.size(), "Presorted: X/y size mismatch");
  DSEM_ENSURE(x.rows() > 0, "Presorted: empty dataset");
  // Every tree and forest fit sorts through here, and a NaN breaks the
  // strict weak ordering the sort below needs; ±inf would make split
  // scores NaN or inf. Reject both rather than fit on them.
  const auto finite = [](double v) { return std::isfinite(v); };
  DSEM_ENSURE(std::all_of(y.begin(), y.end(), finite),
              "Presorted: non-finite target");
  DSEM_ENSURE(std::all_of(x.data().begin(), x.data().end(), finite),
              "Presorted: non-finite feature value");
  Presorted ps;
  ps.n = x.rows();
  ps.k = x.cols();
  ps.value.resize(ps.n * ps.k);
  ps.row.resize(ps.n * ps.k);

  const FeatureMajor fm(x); // contiguous sort keys per feature
  for (std::size_t f = 0; f < ps.k; ++f) {
    const auto col = fm.col(f);
    std::uint32_t* rows = ps.row.data() + f * ps.n;
    double* values = ps.value.data() + f * ps.n;
    std::iota(rows, rows + ps.n, std::uint32_t{0});
    std::sort(rows, rows + ps.n, [&](std::uint32_t a, std::uint32_t b) {
      if (col[a] != col[b]) {
        return col[a] < col[b];
      }
      if (y[a] != y[b]) {
        return y[a] < y[b];
      }
      return a < b;
    });
    for (std::size_t i = 0; i < ps.n; ++i) {
      values[i] = col[rows[i]];
    }
  }
  return ps;
}

} // namespace detail

// Per-fit scratch arena: every buffer build() touches is sized once here,
// so splitting a node allocates nothing. The tree itself grows here too,
// and the fit copies it out once at its exact size.
//
// The k per-feature streams are structure-of-arrays (separate value and
// row-index arrays; targets are gathered through the row index) and
// double-buffered. Which buffer holds a feature's stream is per node and
// per feature: `state` keeps one byte per feature for every pending node,
// naming the buffer its stream is in over the node's span, or
// kConstantFeature once the stream had equal ends in some ancestor (or the
// node itself). A constant feature stays constant in every descendant, so
// from then on it is neither scanned nor partitioned. A node's span of
// each buffer belongs to its subtree alone, so a stable partition of a
// stream into the other buffer overwrites only stale entries.
struct DecisionTreeRegressor::Workspace {
  std::size_t m = 0; ///< training samples
  std::size_t k = 0; ///< features
  std::size_t min_leaf = 1;

  std::vector<double> value[2];        ///< k streams × m entries, per buffer
  std::vector<std::uint32_t> index[2]; ///< training row of each entry
  std::vector<std::uint8_t> state; ///< k bytes per pending node: 0, 1 or
                                   ///< kConstantFeature
  std::vector<std::uint32_t> indices; ///< the seed's node sample ordering
  std::vector<std::uint8_t> go_left; ///< split side per sample row
  std::vector<double> targets; ///< y gathered onto training rows
  std::vector<std::size_t> features; ///< candidate buffer (re-iota'd per node)
  std::vector<std::uint32_t> swap_l; ///< misfit positions, ascending
  std::vector<std::uint32_t> swap_r; ///< fit positions, descending
  std::vector<std::size_t> boot_offset; ///< bootstrap replay: bucket bounds
  std::vector<std::uint32_t> boot_bucket; ///< sample slots grouped by row
  std::vector<std::size_t> boot_cursor; ///< per-row fill cursor
  std::vector<PackedNode> nodes; ///< the tree being built, in preorder
  std::vector<double> means; ///< its interior means, in preorder

  double* stream_value(int buf, std::size_t f) noexcept {
    return value[buf].data() + f * m;
  }
  std::uint32_t* stream_index(int buf, std::size_t f) noexcept {
    return index[buf].data() + f * m;
  }

  /// Borrow a retired workspace (or make a fresh one) / retire it again.
  /// A forest fits hundreds of trees back to back; without recycling each
  /// fit would mmap, fault in, and zero a few MB of streams only to free
  /// them milliseconds later. Recycling is invisible to results because
  /// every buffer is resized and every entry is written by this fit before
  /// it is read.
  static std::unique_ptr<Workspace> acquire();
  static void retire(std::unique_ptr<Workspace> ws);

private:
  struct Arena {
    std::mutex mutex;
    std::vector<std::unique_ptr<Workspace>> retired;
  };
  static Arena& arena();
};

DecisionTreeRegressor::Workspace::Arena& DecisionTreeRegressor::Workspace::arena() {
  static Arena a;
  return a;
}

std::unique_ptr<DecisionTreeRegressor::Workspace>
DecisionTreeRegressor::Workspace::acquire() {
  Arena& a = arena();
  std::lock_guard lock(a.mutex);
  if (!a.retired.empty()) {
    auto ws = std::move(a.retired.back());
    a.retired.pop_back();
    return ws;
  }
  return std::make_unique<Workspace>();
}

void DecisionTreeRegressor::Workspace::retire(std::unique_ptr<Workspace> ws) {
  Arena& a = arena();
  std::lock_guard lock(a.mutex);
  a.retired.push_back(std::move(ws));
}

DecisionTreeRegressor::DecisionTreeRegressor(TreeParams params)
    : params_(params) {
  DSEM_ENSURE(params.max_depth >= 0, "max_depth must be >= 0");
  DSEM_ENSURE(params.min_samples_split >= 2, "min_samples_split must be >= 2");
  DSEM_ENSURE(params.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
  DSEM_ENSURE(params.max_features >= 0, "max_features must be >= 0");
}

void DecisionTreeRegressor::fit(const Matrix& x, std::span<const double> y) {
  DSEM_ENSURE(x.rows() == y.size(), "fit: X/y size mismatch");
  DSEM_ENSURE(x.rows() > 0, "fit: empty dataset");
  const auto ps = detail::Presorted::build(x, y);
  fit_presorted(ps, y, {});
}

void DecisionTreeRegressor::fit_presorted(const detail::Presorted& ps,
                                          std::span<const double> y,
                                          std::span<const std::size_t> sample) {
  DSEM_ENSURE(ps.n == y.size(), "fit_presorted: presort/y size mismatch");
  DSEM_ENSURE(ps.n > 0, "fit_presorted: empty dataset");
  const std::size_t m = sample.empty() ? ps.n : sample.size();
  DSEM_ENSURE(m <= std::numeric_limits<std::uint32_t>::max(),
              "fit_presorted: too many samples");

  nodes_.clear();
  interior_means_.clear();
  depth_ = 0;
  split_width_ = 0;

  auto ws_owner = Workspace::acquire();
  Workspace& ws = *ws_owner;
  ws.m = m;
  ws.k = ps.k;
  ws.min_leaf = static_cast<std::size_t>(params_.min_samples_leaf);
  for (int buf = 0; buf < 2; ++buf) {
    ws.value[buf].resize(ps.k * m);
    ws.index[buf].resize(ps.k * m);
  }
  ws.indices.resize(m);
  ws.go_left.resize(m);
  ws.targets.resize(m);
  ws.features.resize(ps.k);
  ws.swap_l.resize(m);
  ws.swap_r.resize(m);
  std::iota(ws.indices.begin(), ws.indices.end(), std::uint32_t{0});

  if (sample.empty()) {
    std::copy(y.begin(), y.end(), ws.targets.begin());
    for (std::size_t f = 0; f < ps.k; ++f) {
      const double* values = ps.value.data() + f * ps.n;
      const std::uint32_t* rows = ps.row.data() + f * ps.n;
      double* sv = ws.stream_value(0, f);
      std::uint32_t* si = ws.stream_index(0, f);
      for (std::size_t j = 0; j < ps.n; ++j) {
        sv[j] = values[j];
        si[j] = rows[j];
      }
    }
  } else {
    // Bootstrap expansion: bucket the sample by source row, then emit each
    // feature's stream by walking the source order once and replaying each
    // source row `multiplicity` times — O(k·m) instead of k sorts. Within
    // equal (value, target) the emitted row order is bucket order, which
    // prefix sums cannot distinguish. The scratch lives in the recycled
    // workspace: a forest runs this expansion once per tree, and per-fit
    // heap churn for three small arrays is measurable on small fits.
    std::vector<std::size_t>& offset = ws.boot_offset;
    offset.assign(ps.n + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      DSEM_ENSURE(sample[i] < ps.n, "fit_presorted: sample row out of range");
      ++offset[sample[i] + 1];
      ws.targets[i] = y[sample[i]];
    }
    for (std::size_t r = 0; r < ps.n; ++r) {
      offset[r + 1] += offset[r];
    }
    std::vector<std::uint32_t>& bucket = ws.boot_bucket;
    bucket.resize(m);
    {
      std::vector<std::size_t>& cursor = ws.boot_cursor;
      cursor.assign(offset.begin(), offset.end() - 1);
      for (std::size_t i = 0; i < m; ++i) {
        bucket[cursor[sample[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
    for (std::size_t f = 0; f < ps.k; ++f) {
      const double* values = ps.value.data() + f * ps.n;
      const std::uint32_t* rows = ps.row.data() + f * ps.n;
      double* sv = ws.stream_value(0, f);
      std::uint32_t* si = ws.stream_index(0, f);
      std::size_t out = 0;
      for (std::size_t j = 0; j < ps.n; ++j) {
        const std::uint32_t src = rows[j];
        const double v = values[j];
        for (std::size_t b = offset[src]; b < offset[src + 1]; ++b) {
          sv[out] = v;
          si[out] = bucket[b];
          ++out;
        }
      }
      DSEM_ENSURE(out == m, "bootstrap expansion lost samples");
    }
  }

  Rng rng(params_.seed);
  ws.nodes.clear();
  ws.means.clear();
  build(ws, rng);
  nodes_ = std::vector<PackedNode>(ws.nodes.begin(), ws.nodes.end());
  interior_means_ = std::vector<double>(ws.means.begin(), ws.means.end());
  Workspace::retire(std::move(ws_owner));

  metrics::histogram("ml.tree.nodes", static_cast<double>(nodes_.size()));
  metrics::histogram("ml.tree.depth", static_cast<double>(depth_));
}

void DecisionTreeRegressor::build(Workspace& ws, Rng& rng) {
  // Depth-first with the left child first, on an explicit stack: the node
  // order and the rng draws are those of a recursive descent, without its
  // stack frame per level. An unbounded-depth tree over a large grid is
  // thousands of levels deep, deeper than a pool thread's stack holds. The
  // right child is pushed first, so the left one is built next, at its
  // parent's index + 1: the nodes come out in preorder and only right
  // children are linked by index.
  //
  // `ws.state` runs parallel to the stack: pending node i owns bytes
  // [i·k, (i+1)·k), its features' states. A popped node's bytes stay in
  // place while split_node turns them into its children's states; the
  // right child, pushed into the same slot, keeps them and the left child
  // gets a copy.
  struct Pending {
    std::size_t begin = 0;
    std::size_t end = 0;
    int depth = 0;
    std::int32_t right_of = -1; ///< the parent, for a right child
  };
  const std::size_t k = ws.k;
  std::vector<Pending> pending{{0, ws.m, 0, -1}};
  ws.state.assign(k, 0); // every stream starts in buffer 0
  while (!pending.empty()) {
    const Pending p = pending.back();
    pending.pop_back();
    const auto id = static_cast<std::int32_t>(ws.nodes.size());
    if (p.right_of >= 0) {
      ws.nodes[static_cast<std::size_t>(p.right_of)].right = id;
    }
    const std::size_t slot = pending.size() * k;
    const std::size_t mid = split_node(ws, p.begin, p.end, p.depth,
                                       ws.state.data() + slot, rng);
    if (mid != p.begin) {
      pending.push_back({mid, p.end, p.depth + 1, id});
      pending.push_back({p.begin, mid, p.depth + 1, -1});
      ws.state.resize(slot + 2 * k);
      std::copy_n(ws.state.data() + slot, k, ws.state.data() + slot + k);
    } else {
      ws.state.resize(slot);
    }
  }
}

std::size_t DecisionTreeRegressor::split_node(Workspace& ws, std::size_t begin,
                                              std::size_t end, int depth,
                                              std::uint8_t* state, Rng& rng) {
  const std::size_t n = end - begin;
  depth_ = std::max(depth_, depth);

  // Node statistics accumulate over ws.indices order — the same
  // std::partition-produced ordering the seed iterates — so leaf means are
  // bit-identical even though split scanning runs on the sorted streams.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double v = ws.targets[ws.indices[i]];
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / static_cast<double>(n);
  const double sse = sum_sq - sum * mean; // total squared error around mean

  // A leaf returns `begin`: an interior node's split point is past it.
  const auto make_leaf = [&] {
    ws.nodes.push_back(PackedNode{mean, -1, -1});
    return begin;
  };

  const bool depth_capped = params_.max_depth > 0 && depth >= params_.max_depth;
  if (n < static_cast<std::size_t>(params_.min_samples_split) ||
      depth_capped || sse <= 1e-12) {
    return make_leaf();
  }

  // Candidate features: all, or a random subset without replacement. The
  // draw runs whatever the features' states: it is the seed's rng use.
  const std::size_t k = ws.k;
  std::iota(ws.features.begin(), ws.features.end(), std::size_t{0});
  std::size_t tries = k;
  if (params_.max_features > 0 &&
      static_cast<std::size_t>(params_.max_features) < k) {
    tries = static_cast<std::size_t>(params_.max_features);
    for (std::size_t i = 0; i < tries; ++i) {
      const std::size_t j = i + rng.uniform_int(k - i);
      std::swap(ws.features[i], ws.features[j]);
    }
  }

  // A stream with equal ends is constant here and in every descendant:
  // scan_feature would return no split on it, so it drops out for good.
  for (std::size_t f = 0; f < k; ++f) {
    if (state[f] != kConstantFeature) {
      const double* sv = ws.stream_value(state[f], f);
      if (sv[begin] == sv[end - 1]) {
        state[f] = kConstantFeature;
      }
    }
  }

  // Scan each live candidate feature and keep the best, in candidate order.
  int best_feature = -1;
  std::size_t best_position = 0;
  double best_score = sse; // must strictly improve on no-split
  for (std::size_t fi = 0; fi < tries; ++fi) {
    const std::size_t f = ws.features[fi];
    if (state[f] == kConstantFeature) {
      continue;
    }
    const Candidate c =
        scan_feature(ws.stream_value(state[f], f) + begin,
                     ws.stream_index(state[f], f) + begin, ws.targets.data(),
                     n, ws.min_leaf, sum, sum_sq, sse);
    if (c.valid && c.score < best_score - 1e-12) {
      best_score = c.score;
      best_feature = static_cast<int>(f);
      best_position = c.position;
    }
  }

  if (best_feature < 0) {
    return make_leaf();
  }

  // The winning stream's first `best_position + 1` entries go left.
  const auto chosen = static_cast<std::size_t>(best_feature);
  const double* chosen_value = ws.stream_value(state[chosen], chosen);
  const std::uint32_t* chosen_index = ws.stream_index(state[chosen], chosen);
  const std::size_t mid = begin + best_position + 1;
  DSEM_ENSURE(mid < end, "split position leaves the right side empty");
  for (std::size_t i = begin; i < end; ++i) {
    ws.go_left[chosen_index[i]] = i < mid ? 1 : 0;
  }
  const double threshold =
      split_threshold(chosen_value[mid - 1], chosen_value[mid]);

  // Keep every live stream sorted within each child: a stable partition
  // by go_left preserves (value, target, row) order on each side. The
  // winning stream needs no copy: partitioned by its own split position
  // it is the identity, [begin, mid) left and [mid, end) right, so it
  // stays in its buffer. Every other live stream is partitioned into its
  // other buffer, and its state flips.
  for (std::size_t f = 0; f < k; ++f) {
    if (f == chosen || state[f] == kConstantFeature) {
      continue;
    }
    const int from = state[f];
    const double* sv = ws.stream_value(from, f);
    const std::uint32_t* si = ws.stream_index(from, f);
    double* lv = ws.stream_value(from ^ 1, f);
    std::uint32_t* li = ws.stream_index(from ^ 1, f);
    std::size_t wl = begin;
    std::size_t wr = mid;
    for (std::size_t i = begin; i < end; ++i) {
      // Branchless cursor pick: which side an entry lands on is random
      // enough that a conditional branch here mispredicts about half the
      // time, which dominates the copy itself.
      const std::size_t left = ws.go_left[si[i]];
      const std::size_t w = left != 0 ? wl : wr;
      lv[w] = sv[i];
      li[w] = si[i];
      wl += left;
      wr += std::size_t{1} - left;
    }
    DSEM_ENSURE(wl == mid && wr == end, "stream partition mismatch");
    state[f] = static_cast<std::uint8_t>(from ^ 1);
  }

  // Partition `indices` exactly as std::partition would — its (unspecified
  // but deterministic) two-pointer pairing is this tree's node ordering,
  // inherited from the seed. That loop swaps the i-th wrong-side entry
  // found scanning forward through what becomes the left span with the
  // i-th wrong-side entry found scanning backward through what becomes the
  // right span; every pair straddles `mid` and both scans find the same
  // number of them. Collecting the two position lists with branchless
  // compactions and then swapping pairwise reproduces that output
  // byte-for-byte while replacing two find loops that mispredict on every
  // coin-flip element with straight-line stores.
  {
    std::uint32_t* idx = ws.indices.data();
    std::size_t nmis = 0;
    for (std::size_t i = begin; i < mid; ++i) {
      ws.swap_l[nmis] = static_cast<std::uint32_t>(i);
      nmis += std::size_t{1} - ws.go_left[idx[i]];
    }
    std::size_t nfit = 0;
    for (std::size_t i = end; i-- > mid;) {
      ws.swap_r[nfit] = static_cast<std::uint32_t>(i);
      nfit += ws.go_left[idx[i]];
    }
    DSEM_ENSURE(nmis == nfit, "stream/index partition mismatch");
    for (std::size_t s = 0; s < nmis; ++s) {
      std::swap(idx[ws.swap_l[s]], idx[ws.swap_r[s]]);
    }
  }

  ws.nodes.push_back(PackedNode{threshold, best_feature, -1});
  ws.means.push_back(mean);
  split_width_ =
      std::max(split_width_, static_cast<std::size_t>(best_feature) + 1);
  return mid;
}

DecisionTreeRegressor
DecisionTreeRegressor::from_nodes(TreeParams params,
                                  const std::vector<TreeNode>& nodes) {
  DSEM_ENSURE(!nodes.empty(), "from_nodes: empty node array");
  DSEM_ENSURE(nodes.size() <=
                  static_cast<std::size_t>(
                      std::numeric_limits<std::int32_t>::max()),
              "from_nodes: too many nodes");
  const auto n = static_cast<std::int32_t>(nodes.size());
  // Walk from the root in preorder, checking shape as we go: every index
  // must be visited exactly once (no orphans, no diamonds, no cycles).
  // Each visited node is appended to the stored layout; the left child is
  // visited next, so it lands at its parent's index + 1, and a right
  // child links itself into its parent when it is reached.
  struct Visit {
    std::int32_t id = 0;
    std::int32_t right_of = -1; ///< stored parent, for a right child
    int depth = 0;
  };
  DecisionTreeRegressor tree(params);
  tree.nodes_.reserve(nodes.size());
  tree.interior_means_.reserve(static_cast<std::size_t>(std::count_if(
      nodes.begin(), nodes.end(),
      [](const TreeNode& node) { return node.feature >= 0; })));
  std::vector<bool> visited(nodes.size(), false);
  std::vector<Visit> stack{{0, -1, 0}};
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    const auto uid = static_cast<std::size_t>(v.id);
    DSEM_ENSURE(!visited[uid], "from_nodes: node reached twice");
    visited[uid] = true;
    const auto at = static_cast<std::int32_t>(tree.nodes_.size());
    if (v.right_of >= 0) {
      tree.nodes_[static_cast<std::size_t>(v.right_of)].right = at;
    }
    tree.depth_ = std::max(tree.depth_, v.depth);
    const TreeNode& node = nodes[uid];
    if (node.feature < 0) {
      DSEM_ENSURE(node.left == -1 && node.right == -1,
                  "from_nodes: leaf with children");
      tree.nodes_.push_back(PackedNode{node.value, -1, -1});
      continue;
    }
    DSEM_ENSURE(node.left != -1 && node.right != -1,
                "from_nodes: interior node missing a child");
    for (const std::int32_t child : {node.left, node.right}) {
      DSEM_ENSURE(child >= 0 && child < n,
                  "from_nodes: child index out of range");
    }
    tree.split_width_ =
        std::max(tree.split_width_, static_cast<std::size_t>(node.feature) + 1);
    tree.nodes_.push_back(PackedNode{node.threshold, node.feature, -1});
    tree.interior_means_.push_back(node.value);
    stack.push_back({node.right, at, v.depth + 1});
    stack.push_back({node.left, -1, v.depth + 1});
  }
  DSEM_ENSURE(tree.nodes_.size() == nodes.size(),
              "from_nodes: unreachable nodes");
  return tree;
}

std::vector<TreeNode> DecisionTreeRegressor::to_nodes() const {
  std::vector<TreeNode> out;
  out.reserve(nodes_.size());
  std::size_t interior = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const PackedNode& node = nodes_[i];
    if (node.feature < 0) {
      out.push_back(TreeNode{-1, 0.0, -1, -1, node.threshold});
    } else {
      out.push_back(TreeNode{node.feature, node.threshold,
                             static_cast<std::int32_t>(i + 1), node.right,
                             interior_means_[interior++]});
    }
  }
  return out;
}

double DecisionTreeRegressor::predict_one(std::span<const double> x) const {
  DSEM_ENSURE(!nodes_.empty(), "predict on unfitted DecisionTreeRegressor");
  DSEM_ENSURE(x.size() >= split_width_,
              "predict: row narrower than the tree's split features");
  return leaf_value(nodes_.data(), x.data());
}

} // namespace dsem::ml
