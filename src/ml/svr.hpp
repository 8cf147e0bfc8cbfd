// Epsilon-insensitive support vector regression with an RBF kernel.
//
// Solved by cyclic coordinate descent on the bias-free dual (a constant
// term added to the kernel absorbs the bias):
//   min_beta  1/2 betaᵀK beta - betaᵀy + eps * ||beta||₁,  |beta_i| <= C
// Each coordinate has the closed-form soft-threshold/clip update, which is
// simple, deterministic, and convergent. Features are standardized
// internally (RBF distances are scale-sensitive).
#pragma once

#include "ml/regressor.hpp"

namespace dsem::ml {

class SvrRbf final : public Regressor {
public:
  explicit SvrRbf(double c = 10.0, double epsilon = 0.01, double gamma = 1.0,
                  int max_iter = 300, double tol = 1e-5);

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<SvrRbf>(c_, epsilon_, gamma_, max_iter_, tol_);
  }
  std::string name() const override { return "SVR_RBF"; }

  std::size_t support_vector_count() const noexcept;

private:
  double kernel(std::span<const double> a, std::span<const double> b) const;

  double c_;
  double epsilon_;
  double gamma_;
  int max_iter_;
  double tol_;

  StandardScaler scaler_;
  Matrix support_; // standardized training samples
  std::vector<double> beta_;
};

} // namespace dsem::ml
