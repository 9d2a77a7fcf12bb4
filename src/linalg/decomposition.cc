#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>

namespace tsaug::linalg {

bool CholeskyFactor(Matrix& a) {
  TSAUG_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (int k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (int k = 0; k < j; ++k) sum -= a(i, k) * a(j, k);
      a(i, j) = sum / ljj;
    }
    for (int i = 0; i < j; ++i) a(i, j) = 0.0;
  }
  return true;
}

Matrix CholeskySolve(Matrix a, const Matrix& b) {
  TSAUG_CHECK(a.rows() == b.rows());
  if (!CholeskyFactor(a)) return Matrix();
  const int n = a.rows();
  Matrix x = b;
  // Forward substitution: L z = B.
  for (int col = 0; col < x.cols(); ++col) {
    for (int i = 0; i < n; ++i) {
      double sum = x(i, col);
      for (int k = 0; k < i; ++k) sum -= a(i, k) * x(k, col);
      x(i, col) = sum / a(i, i);
    }
    // Back substitution: L^T x = z.
    for (int i = n - 1; i >= 0; --i) {
      double sum = x(i, col);
      for (int k = i + 1; k < n; ++k) sum -= a(k, i) * x(k, col);
      x(i, col) = sum / a(i, i);
    }
  }
  return x;
}

core::StatusOr<Matrix> TryCholeskySolveJittered(const Matrix& a,
                                                const Matrix& b,
                                                double initial_jitter) {
  double jitter = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Matrix regularized = a;
    if (jitter > 0.0) AddDiagonal(regularized, jitter);
    Matrix x = CholeskySolve(std::move(regularized), b);
    if (!x.empty()) return x;
    jitter = jitter == 0.0 ? initial_jitter : jitter * 10.0;
  }
  char context[96];
  std::snprintf(context, sizeof(context),
                "matrix not SPD even after jitter %g", jitter);
  return core::SingularError(context);
}

namespace {

// The symmetric eigensolver is EISPACK's tred2 + tql2 (as in JAMA), run on
// W = V^T: every inner loop of both phases then walks contiguous rows of W
// instead of strided columns of V. The arithmetic is JAMA's, term for
// term, applied to A^T (so it reads the upper triangle of A). Plain serial
// C++: its bits depend on neither the thread count nor the kernel backend.

// Householder reduction of the symmetric matrix held in `w` to tridiagonal
// form; `d` and `e` hold n entries each. On return `d` is the diagonal,
// e[1..n-1] the subdiagonal and `w` the accumulated orthogonal transform,
// transposed.
void Tridiagonalize(Matrix& w, double* d, double* e) {
  const int n = w.rows();
  for (int j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      // Householder vector, scaled against under/overflow.
      for (int k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (int j = 0; j < i; ++j) e[j] = 0.0;

      // e = A u over the leading i x i block (its upper triangle, by rows).
      double* wi = w.row_data(i);
      for (int j = 0; j < i; ++j) {
        const double* wj = w.row_data(j);
        f = d[j];
        wi[j] = f;
        g = e[j] + wj[j] * f;
        for (int k = j + 1; k <= i - 1; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (int j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (int j = 0; j < i; ++j) e[j] -= hh * d[j];

      // Rank-2 update of the block.
      for (int j = 0; j < i; ++j) {
        double* wj = w.row_data(j);
        f = d[j];
        g = e[j];
        for (int k = j; k <= i - 1; ++k) {
          wj[k] -= (f * e[k] + g * d[k]);
        }
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the transformations; row i + 1 of `w` holds reflector i + 1.
  for (int i = 0; i < n - 1; ++i) {
    w(i, n - 1) = w(i, i);
    w(i, i) = 1.0;
    double* reflector = w.row_data(i + 1);
    const double h = d[i + 1];
    if (h != 0.0) {
      for (int k = 0; k <= i; ++k) d[k] = reflector[k] / h;
      for (int j = 0; j <= i; ++j) {
        double* wj = w.row_data(j);
        double g = 0.0;
        for (int k = 0; k <= i; ++k) g += reflector[k] * wj[k];
        for (int k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    for (int k = 0; k <= i; ++k) reflector[k] = 0.0;
  }
  for (int j = 0; j < n; ++j) {
    d[j] = w(j, n - 1);
    w(j, n - 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL on the tridiagonal (d, e), rotating pairs of rows of
// `w`. On return `d` holds the eigenvalues (unsorted) and row j of `w` the
// eigenvector of d[j]. Returns false if the iterations run out, bounded at
// 30 n in total as in LAPACK's dsteqr.
bool TridiagonalQl(Matrix& w, double* d, double* e) {
  const int n = w.rows();
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::ldexp(1.0, -52);
  const std::int64_t max_iterations = std::int64_t{30} * n;
  std::int64_t iterations = 0;
  double f = 0.0;
  double tst1 = 0.0;
  for (int l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element; e[n - 1] == 0 ends the scan.
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    int m = l;
    while (m < n - 1 && !(std::fabs(e[m]) <= eps * tst1)) ++m;

    // If m == l, d[l] is an eigenvalue; otherwise iterate.
    if (m > l) {
      do {
        if (++iterations > max_iterations) return false;
        // Implicit shift.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (int i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Implicit QL transformation.
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (int i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          double* lower = w.row_data(i);
          double* upper = w.row_data(i + 1);
          for (int k = 0; k < n; ++k) {
            const double t = upper[k];
            upper[k] = s * lower[k] + c * t;
            lower[k] = c * lower[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return true;
}

}  // namespace

void SymmetricEigen(const Matrix& a, std::vector<double>* eigenvalues,
                    Matrix* eigenvectors) {
  TSAUG_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  const auto fail = [&] {
    eigenvalues->assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::quiet_NaN());
    *eigenvectors = Matrix(n, n, std::numeric_limits<double>::quiet_NaN());
  };
  for (double v : a.data()) {
    if (!std::isfinite(v)) return fail();
  }
  eigenvalues->resize(static_cast<size_t>(n));
  *eigenvectors = Matrix(n, n);
  if (n == 0) return;

  Matrix w = a;
  std::vector<double> d(static_cast<size_t>(n));
  std::vector<double> e(static_cast<size_t>(n));
  Tridiagonalize(w, d.data(), e.data());
  if (!TridiagonalQl(w, d.data(), e.data())) return fail();

  // Ascending eigenvalues; the one transpose back to vectors-in-columns.
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int i, int j) {
    return d[static_cast<size_t>(i)] < d[static_cast<size_t>(j)];
  });
  for (int j = 0; j < n; ++j) {
    const int src = order[static_cast<size_t>(j)];
    (*eigenvalues)[static_cast<size_t>(j)] = d[static_cast<size_t>(src)];
    const double* vector = w.row_data(src);
    for (int i = 0; i < n; ++i) (*eigenvectors)(i, j) = vector[i];
  }
}

Matrix SampleCovariance(const Matrix& x) {
  TSAUG_CHECK(x.rows() > 0);
  Matrix centered = x;
  centered.CenterColumns(x.ColMeans());
  Matrix cov = MatMulTransposeA(centered, centered);
  return Scale(cov, 1.0 / x.rows());
}

Matrix ShrinkageCovariance(const Matrix& x, double* shrinkage) {
  const int n = x.rows();
  const int d = x.cols();
  Matrix s = SampleCovariance(x);

  double trace = 0.0;
  for (int i = 0; i < d; ++i) trace += s(i, i);
  const double mu = trace / d;

  double trace_s2 = 0.0;  // trace(S^2) = sum of squared entries (S symm.)
  for (double v : s.data()) trace_s2 += v * v;

  // OAS shrinkage intensity (Chen et al. 2010).
  const double numerator = (1.0 - 2.0 / d) * trace_s2 + trace * trace;
  const double denominator =
      (n + 1.0 - 2.0 / d) * (trace_s2 - trace * trace / d);
  double gamma = denominator > 0.0 ? numerator / denominator : 1.0;
  gamma = std::clamp(gamma, 0.0, 1.0);
  if (shrinkage != nullptr) *shrinkage = gamma;

  Matrix shrunk = Scale(s, 1.0 - gamma);
  AddDiagonal(shrunk, gamma * mu);
  return shrunk;
}

}  // namespace tsaug::linalg
