#include "ml/svr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace dsem::ml {

SvrRbf::SvrRbf(double c, double epsilon, double gamma, int max_iter,
               double tol)
    : c_(c), epsilon_(epsilon), gamma_(gamma), max_iter_(max_iter), tol_(tol) {
  DSEM_ENSURE(c > 0.0, "SVR C must be positive");
  DSEM_ENSURE(epsilon >= 0.0, "SVR epsilon must be non-negative");
  DSEM_ENSURE(gamma > 0.0, "SVR gamma must be positive");
  DSEM_ENSURE(max_iter > 0, "SVR max_iter must be positive");
}

double SvrRbf::kernel(std::span<const double> a,
                      std::span<const double> b) const {
  double sq = 0.0;
  const std::size_t k = a.size();
  const double* pa = a.data();
  const double* pb = b.data();
  // Contiguous pointer walk: both spans are Matrix rows, so the compiler
  // can vectorize without reassociating the accumulation.
  for (std::size_t j = 0; j < k; ++j) {
    const double d = pa[j] - pb[j];
    sq += d * d;
  }
  // +1 absorbs the bias term into the kernel.
  return std::exp(-gamma_ * sq) + 1.0;
}

void SvrRbf::fit(const Matrix& x, std::span<const double> y) {
  DSEM_ENSURE(x.rows() == y.size(), "fit: X/y size mismatch");
  DSEM_ENSURE(x.rows() > 0, "fit: empty dataset");
  metrics::ScopedTimer timer("ml.svr.fit_s");
  const std::size_t n = x.rows();

  scaler_.fit(x);
  support_ = scaler_.transform(x);

  // Dense kernel matrix, upper triangle + mirror, rows fanned across the
  // pool. Each row's entry set {k(i, j≥i), k(j≥i, i)} is disjoint from
  // every other row's, each entry is one scalar kernel() call, and the
  // triangle keeps the total work equal to the serial build — bit-identical
  // values for any pool size, no extra flops on small machines.
  Matrix k(n, n);
  parallel_for_chunks(
      ThreadPool::global(), 0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const auto ri = support_.row(i);
          for (std::size_t j = i; j < n; ++j) {
            const double v = kernel(ri, support_.row(j));
            k(i, j) = v;
            k(j, i) = v;
          }
        }
      });

  beta_.assign(n, 0.0);
  std::vector<double> f(n, 0.0); // f_i = sum_j K_ij beta_j
  for (int it = 0; it < max_iter_; ++it) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* krow = k.row(i).data();
      const double kii = krow[i];
      const double eik = epsilon_ / kii; // loop-invariant per coordinate
      // Unregularized optimum for this coordinate, then soft-threshold for
      // the eps-insensitive term and clip to the box.
      const double raw = beta_[i] + (y[i] - f[i]) / kii;
      double b = 0.0;
      if (raw > eik) {
        b = raw - eik;
      } else if (raw < -eik) {
        b = raw + eik;
      }
      b = std::clamp(b, -c_, c_);
      const double delta = b - beta_[i];
      if (delta != 0.0) {
        double* pf = f.data();
        for (std::size_t j = 0; j < n; ++j) {
          pf[j] += delta * krow[j];
        }
        beta_[i] = b;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < tol_) {
      break;
    }
  }

  // How sparse the dual solution came out; scheduling-independent in
  // value, but gauges are last-write-wins so concurrent fits (e.g. inside
  // a parallel CV fold) make the survivor a scheduling observation.
  metrics::gauge("ml.svr.support_vectors",
                 static_cast<double>(support_vector_count()));
}

double SvrRbf::predict_one(std::span<const double> x) const {
  DSEM_ENSURE(!beta_.empty(), "predict on unfitted SvrRbf");
  const std::vector<double> xs = scaler_.transform_one(x);
  double out = 0.0;
  for (std::size_t i = 0; i < beta_.size(); ++i) {
    if (beta_[i] != 0.0) {
      out += beta_[i] * kernel(xs, support_.row(i));
    }
  }
  return out;
}

std::size_t SvrRbf::support_vector_count() const noexcept {
  std::size_t count = 0;
  for (double b : beta_) {
    if (b != 0.0) {
      ++count;
    }
  }
  return count;
}

} // namespace dsem::ml
