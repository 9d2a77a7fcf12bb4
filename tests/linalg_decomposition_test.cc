#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace tsaug::linalg {
namespace {

Matrix RandomSpd(int n, core::Rng& rng) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.Normal();
  }
  Matrix spd = MatMulTransposeA(a, a);
  AddDiagonal(spd, 0.5);
  return spd;
}

TEST(Cholesky, FactorReconstructs) {
  core::Rng rng(1);
  Matrix a = RandomSpd(6, rng);
  Matrix l = a;
  ASSERT_TRUE(CholeskyFactor(l));
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(l, l), a), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::FromRows({{0, 1}, {1, 0}});
  EXPECT_FALSE(CholeskyFactor(a));
}

TEST(CholeskySolve, SolvesLinearSystem) {
  core::Rng rng(2);
  Matrix a = RandomSpd(5, rng);
  Matrix x_true(5, 2);
  for (double& v : x_true.data()) v = rng.Normal();
  Matrix b = MatMul(a, x_true);
  Matrix x = CholeskySolve(a, b);
  ASSERT_FALSE(x.empty());
  EXPECT_LT(MaxAbsDiff(x, x_true), 1e-8);
}

TEST(CholeskySolveJittered, HandlesSemiDefinite) {
  // Rank-1 PSD matrix; plain Cholesky fails, jitter rescues it.
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  Matrix b = Matrix::FromRows({{1}, {1}});
  Matrix x = TryCholeskySolveJittered(a, b).value();
  ASSERT_FALSE(x.empty());
  // Solution of (A + eps I) x = b stays close to a least-norm solution.
  Matrix residual = Sub(MatMul(a, x), b);
  EXPECT_LT(MaxAbsDiff(residual, Matrix(2, 1)), 1e-3);
}

TEST(SymmetricEigen, DiagonalMatrix) {
  Matrix a = Matrix::FromRows({{3, 0}, {0, 1}});
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, ReconstructsMatrix) {
  core::Rng rng(3);
  Matrix a = RandomSpd(8, rng);
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  // A = V diag(w) V^T.
  Matrix vw = v;
  for (int i = 0; i < vw.rows(); ++i) {
    for (int j = 0; j < vw.cols(); ++j) vw(i, j) *= w[static_cast<size_t>(j)];
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(vw, v), a), 1e-8);
}

TEST(SymmetricEigen, VectorsOrthonormal) {
  core::Rng rng(4);
  Matrix a = RandomSpd(7, rng);
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(v, v), Matrix::Identity(7)), 1e-9);
}

TEST(SymmetricEigen, EigenvaluesAscending) {
  core::Rng rng(5);
  Matrix a = RandomSpd(9, rng);
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i - 1], w[i]);
}

// Backward-stability check of SymmetricEigen on `a`: eigenvalues ascending,
// max |AV - V diag(w)| <= c n eps ||A||_F and max |V^T V - I| <= c n eps,
// with one constant c for every fixture.
void ExpectAccurateEigen(const Matrix& a, const std::string& label) {
  constexpr double kC = 2.0;
  const double eps = std::numeric_limits<double>::epsilon();
  const int n = a.rows();
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  ASSERT_EQ(w.size(), static_cast<size_t>(n)) << label;
  ASSERT_EQ(v.rows(), n) << label;
  ASSERT_EQ(v.cols(), n) << label;
  for (size_t i = 1; i < w.size(); ++i) ASSERT_LE(w[i - 1], w[i]) << label;

  double norm = 0.0;
  for (double x : a.data()) norm += x * x;
  norm = std::sqrt(norm);
  Matrix vw = v;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) vw(i, j) *= w[static_cast<size_t>(j)];
  }
  EXPECT_LE(MaxAbsDiff(MatMul(a, v), vw), kC * n * eps * norm) << label;
  EXPECT_LE(MaxAbsDiff(MatMulTransposeA(v, v), Matrix::Identity(n)),
            kC * n * eps)
      << label;
}

TEST(SymmetricEigen, TinyMatrices) {
  ExpectAccurateEigen(Matrix::FromRows({{-2.5}}), "1x1");
  ExpectAccurateEigen(Matrix::FromRows({{0}}), "1x1 zero");
  ExpectAccurateEigen(Matrix::FromRows({{2, 1}, {1, 2}}), "2x2");
  ExpectAccurateEigen(Matrix::FromRows({{1, 0}, {0, 3}}), "2x2 diagonal");
  ExpectAccurateEigen(Matrix::FromRows({{5, 0}, {0, -1}}), "2x2 unsorted");

  std::vector<double> w;
  Matrix v;
  SymmetricEigen(Matrix::FromRows({{2, 1}, {1, 2}}), &w, &v);
  EXPECT_NEAR(w[0], 1.0, 1e-15);
  EXPECT_NEAR(w[1], 3.0, 1e-15);
  SymmetricEigen(Matrix::FromRows({{5, 0}, {0, -1}}), &w, &v);
  EXPECT_EQ(w[0], -1.0);
  EXPECT_EQ(w[1], 5.0);
  EXPECT_EQ(std::fabs(v(1, 0)), 1.0);
  EXPECT_EQ(std::fabs(v(0, 1)), 1.0);

  SymmetricEigen(Matrix(0, 0), &w, &v);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(v.rows(), 0);
}

TEST(SymmetricEigen, DiagonalAndTridiagonal) {
  core::Rng rng(11);
  for (int n : {3, 17, 64}) {
    Matrix diagonal(n, n);
    Matrix tridiagonal(n, n);
    for (int i = 0; i < n; ++i) {
      diagonal(i, i) = rng.Normal(0.0, 10.0);
      tridiagonal(i, i) = rng.Normal();
      if (i + 1 < n) {
        tridiagonal(i, i + 1) = tridiagonal(i + 1, i) = rng.Normal();
      }
    }
    ExpectAccurateEigen(diagonal, "diagonal n=" + std::to_string(n));
    ExpectAccurateEigen(tridiagonal, "tridiagonal n=" + std::to_string(n));

    // A diagonal matrix's eigenvalues are its sorted diagonal, exactly.
    std::vector<double> expected;
    for (int i = 0; i < n; ++i) expected.push_back(diagonal(i, i));
    std::sort(expected.begin(), expected.end());
    std::vector<double> w;
    Matrix v;
    SymmetricEigen(diagonal, &w, &v);
    EXPECT_EQ(w, expected);
  }
}

TEST(SymmetricEigen, RepeatedAndZeroEigenvalues) {
  for (int n : {1, 5, 40}) {
    ExpectAccurateEigen(Matrix::Identity(n), "identity n=" + std::to_string(n));
    ExpectAccurateEigen(Matrix(n, n), "zero n=" + std::to_string(n));
    std::vector<double> w;
    Matrix v;
    SymmetricEigen(Matrix::Identity(n), &w, &v);
    for (double x : w) EXPECT_EQ(x, 1.0);
    SymmetricEigen(Matrix(n, n), &w, &v);
    for (double x : w) EXPECT_EQ(x, 0.0);
  }
}

TEST(SymmetricEigen, GradedScales) {
  // D S D with D spanning 1e-4..1e4, so entries span 1e-8..1e8; graded
  // both ways, since QL favours large entries at the bottom right.
  core::Rng rng(12);
  const int n = 33;
  const Matrix s = RandomSpd(n, rng);
  for (bool increasing : {true, false}) {
    Matrix a = s;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const double di = std::pow(10.0, -4.0 + 8.0 * (increasing ? i : n - 1 - i) / (n - 1));
        const double dj = std::pow(10.0, -4.0 + 8.0 * (increasing ? j : n - 1 - j) / (n - 1));
        a(i, j) *= di * dj;
      }
    }
    ExpectAccurateEigen(a, increasing ? "graded up" : "graded down");
  }
}

TEST(SymmetricEigen, RandomSpdUpTo320) {
  core::Rng rng(13);
  for (int n : {3, 10, 57, 128, 320}) {
    ExpectAccurateEigen(RandomSpd(n, rng), "spd n=" + std::to_string(n));
  }
}

TEST(SymmetricEigen, RankDeficientCentredGram) {
  // The LOOCV input: X X^T of column-centred rows, so the ones vector is
  // in the null space; duplicated rows widen the null space further.
  core::Rng rng(14);
  for (int duplicates : {0, 6}) {
    const int n = 60;
    const int d = 200;
    Matrix x(n, d);
    for (double& v : x.data()) v = rng.Normal();
    for (int i = 0; i < duplicates; ++i) x.SetRow(n - 1 - i, x.Row(i));
    x.CenterColumns(x.ColMeans());
    const Matrix gram = MatMulTransposeB(x, x);
    ExpectAccurateEigen(gram, "centred gram, duplicates=" +
                                  std::to_string(duplicates));

    std::vector<double> w;
    Matrix v;
    SymmetricEigen(gram, &w, &v);
    double largest = 0.0;
    for (double lambda : w) largest = std::max(largest, std::fabs(lambda));
    int null_dims = 0;
    for (double lambda : w) null_dims += std::fabs(lambda) <= 1e-12 * largest ? 1 : 0;
    EXPECT_EQ(null_dims, 1 + duplicates);
    // The ones direction lies in the span of the null eigenvectors.
    double projected = 0.0;
    for (int j = 0; j < null_dims; ++j) {
      double dot = 0.0;
      for (int i = 0; i < n; ++i) dot += v(i, j);
      projected += dot * dot;
    }
    EXPECT_NEAR(projected, static_cast<double>(n), 1e-9 * n);
  }
}

TEST(SymmetricEigen, NonFiniteInputGivesNonFiniteEigenvalues) {
  core::Rng rng(15);
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double bad : kBad) {
    for (int n : {1, 2, 7}) {
      const Matrix spd = RandomSpd(n, rng);
      for (size_t at : {size_t{0}, spd.size() / 2, spd.size() - 1}) {
        Matrix a = spd;
        a.data()[at] = bad;
        std::vector<double> w = {1.0};
        Matrix v;
        SymmetricEigen(a, &w, &v);
        ASSERT_EQ(w.size(), static_cast<size_t>(n));
        for (double x : w) EXPECT_FALSE(std::isfinite(x));
        EXPECT_EQ(v.rows(), n);
        EXPECT_EQ(v.cols(), n);
      }
    }
  }
}

TEST(SampleCovariance, MatchesHandComputation) {
  // Two points (0,0), (2,2): mean (1,1); cov (denominator n) = [[1,1],[1,1]].
  Matrix x = Matrix::FromRows({{0, 0}, {2, 2}});
  Matrix cov = SampleCovariance(x);
  EXPECT_LT(MaxAbsDiff(cov, Matrix::FromRows({{1, 1}, {1, 1}})), 1e-12);
}

TEST(ShrinkageCovariance, InterpolatesTowardScaledIdentity) {
  core::Rng rng(6);
  // Few samples in high dimension: shrinkage should be substantial and the
  // result SPD (Cholesky succeeds) where the sample covariance is singular.
  Matrix x(4, 12);
  for (double& v : x.data()) v = rng.Normal();
  double gamma = 0.0;
  Matrix sigma = ShrinkageCovariance(x, &gamma);
  EXPECT_GT(gamma, 0.0);
  EXPECT_LE(gamma, 1.0);
  Matrix l = sigma;
  EXPECT_TRUE(CholeskyFactor(l));
}

TEST(ShrinkageCovariance, NearZeroShrinkageForManyAnisotropicSamples) {
  // With abundant samples of strongly anisotropic data, OAS should trust
  // the sample covariance (shrinking toward a scaled identity would be
  // badly biased, and the estimator knows it).
  core::Rng rng(7);
  Matrix x(4000, 3);
  for (int i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.Normal(0, 10.0);
    x(i, 1) = rng.Normal(0, 1.0);
    x(i, 2) = rng.Normal(0, 0.1);
  }
  double gamma = 1.0;
  Matrix sigma = ShrinkageCovariance(x, &gamma);
  EXPECT_LT(gamma, 0.05);
  EXPECT_NEAR(sigma(0, 0), 100.0, 10.0);
}

}  // namespace
}  // namespace tsaug::linalg
