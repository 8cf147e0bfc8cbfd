#include "ml/regressor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace dsem::ml {

std::vector<double> Regressor::predict_many(const Matrix& x) const {
  std::vector<double> out(x.rows());
  const auto run = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      out[r] = predict_one(x.row(r));
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
Regressor::predict_sweep(std::span<const double> prefix,
                         std::span<const double> values) const {
  Matrix rows(values.size(), prefix.size() + 1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    auto row = rows.row(i);
    std::copy(prefix.begin(), prefix.end(), row.begin());
    row.back() = values[i];
  }
  return predict_many(rows);
}

void StandardScaler::fit(const Matrix& x) {
  DSEM_ENSURE(x.rows() > 0, "StandardScaler: empty dataset");
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  mean_.assign(k, 0.0);
  scale_.assign(k, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (std::size_t j = 0; j < k; ++j) {
      mean_[j] += row[j];
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    mean_[j] /= static_cast<double>(n);
  }
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (std::size_t j = 0; j < k; ++j) {
      const double d = row[j] - mean_[j];
      scale_[j] += d * d;
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    scale_[j] = std::sqrt(scale_[j] / static_cast<double>(n));
    if (scale_[j] == 0.0) {
      scale_[j] = 1.0; // constant feature: leave untouched
    }
  }
}

std::vector<double>
StandardScaler::transform_one(std::span<const double> x) const {
  DSEM_ENSURE(fitted(), "StandardScaler used before fit");
  DSEM_ENSURE(x.size() == mean_.size(), "transform: width mismatch");
  std::vector<double> out(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    out[j] = (x[j] - mean_[j]) / scale_[j];
  }
  return out;
}

Matrix StandardScaler::transform(const Matrix& x) const {
  DSEM_ENSURE(fitted(), "StandardScaler used before fit");
  DSEM_ENSURE(x.cols() == mean_.size(), "transform: width mismatch");
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto src = x.row(r);
    auto dst = out.row(r);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      dst[j] = (src[j] - mean_[j]) / scale_[j];
    }
  }
  return out;
}

} // namespace dsem::ml
