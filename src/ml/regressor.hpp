// Common interface for all regression models.
//
// fit() consumes a feature matrix X (one sample per row) and targets y;
// clone() returns an *unfitted* copy carrying the same hyperparameters so
// that cross-validation and grid search can refit fresh instances per fold.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace dsem::ml {

/// predict_many batches below this many rows stay serial: the values are
/// identical either way, and tiny batches (the LOOCV inner loop) don't
/// amortize task dispatch.
inline constexpr std::size_t kParallelPredictMinRows = 256;

class Regressor {
public:
  virtual ~Regressor() = default;

  virtual void fit(const Matrix& x, std::span<const double> y) = 0;
  virtual double predict_one(std::span<const double> x) const = 0;
  virtual std::unique_ptr<Regressor> clone() const = 0;
  virtual std::string name() const = 0;

  /// Predicts every row of `x`. out[r] is exactly predict_one(x.row(r)) —
  /// rows are independent, so the base implementation fans large batches
  /// across the global pool with each row writing its own slot (the output
  /// never depends on scheduling). Models override this when a batch can
  /// be evaluated in a more cache-friendly order than row-by-row.
  virtual std::vector<double> predict_many(const Matrix& x) const;

  /// Predicts the rows [prefix..., values[i]]: one input swept along its
  /// last column (a frequency curve). out[i] is exactly predict_one of that
  /// row. The base implementation materializes the rows and calls
  /// predict_many; models override it when rows sharing a prefix can share
  /// work.
  virtual std::vector<double>
  predict_sweep(std::span<const double> prefix,
                std::span<const double> values) const;

  std::vector<double> predict(const Matrix& x) const {
    return predict_many(x);
  }
};

/// Per-feature standardization (zero mean, unit variance). Constant
/// features get scale 1 so transform is a no-op on them.
class StandardScaler {
public:
  void fit(const Matrix& x);
  std::vector<double> transform_one(std::span<const double> x) const;
  Matrix transform(const Matrix& x) const;
  bool fitted() const noexcept { return !mean_.empty(); }
  std::span<const double> mean() const noexcept { return mean_; }
  std::span<const double> scale() const noexcept { return scale_; }

private:
  std::vector<double> mean_;
  std::vector<double> scale_;
};

} // namespace dsem::ml
