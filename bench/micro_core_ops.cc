// Microbenchmarks of the numeric substrates: FFT, DTW, ridge solvers, the
// symmetric eigensolver, conv1d, the GRU stack and the ROCKET transform. google-benchmark based.
#include <benchmark/benchmark.h>

#include "classify/rocket.h"
#include "core/rng.h"
#include "fft/fft.h"
#include "linalg/decomposition.h"
#include "linalg/distance.h"
#include "linalg/ridge.h"
#include "nn/layers.h"

namespace {

using tsaug::core::Rng;
using tsaug::core::TimeSeries;

void BM_Fft(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<tsaug::fft::Complex> data(static_cast<size_t>(n));
  for (auto& v : data) v = {rng.Normal(), rng.Normal()};
  for (auto _ : state) {
    std::vector<tsaug::fft::Complex> copy = data;
    tsaug::fft::Fft(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// 405 and 1751 are Bluestein (paper dataset lengths); the rest radix-2.
BENCHMARK(BM_Fft)->Arg(64)->Arg(256)->Arg(1024)->Arg(405)->Arg(1751);

TimeSeries RandomSeries(int channels, int length, Rng& rng) {
  TimeSeries s(channels, length);
  for (double& v : s.values()) v = rng.Normal();
  return s;
}

void BM_DtwDistance(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int window = static_cast<int>(state.range(1));
  Rng rng(2);
  const TimeSeries a = RandomSeries(3, length, rng);
  const TimeSeries b = RandomSeries(3, length, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsaug::linalg::DtwDistance(a, b, window));
  }
}
// Unconstrained vs Sakoe-Chiba banded DTW.
BENCHMARK(BM_DtwDistance)
    ->Args({64, -1})
    ->Args({64, 8})
    ->Args({256, -1})
    ->Args({256, 8});

void BM_RidgeFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(3);
  tsaug::linalg::Matrix x(n, d);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 2;
  for (auto _ : state) {
    tsaug::linalg::RidgeClassifierCV clf;
    TSAUG_CHECK_OK(clf.TryFit(x, labels, 2));
    benchmark::DoNotOptimize(clf.best_alpha());
  }
}
// Primal regime (d <= n) vs the ROCKET-style dual regime (d >> n).
BENCHMARK(BM_RidgeFit)->Args({128, 32})->Args({64, 2000});

// Column-centred n x n Gram of n rows with `d` N(0,1) features: the matrix
// RidgeClassifierCV eigendecomposes for LOOCV.
tsaug::linalg::Matrix CentredGram(int n, int d, Rng& rng) {
  tsaug::linalg::Matrix x(n, d);
  for (double& v : x.data()) v = rng.Normal();
  x.CenterColumns(x.ColMeans());
  return tsaug::linalg::MatMulTransposeB(x, x);
}

// n = 208 is the largest train split of the tiny grid, 640 a mid size and
// 2459 the LSST train size of the paper grid.
void BM_SymmetricEigen(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  const tsaug::linalg::Matrix gram = CentredGram(n, 1000, rng);
  std::vector<double> eigenvalues;
  tsaug::linalg::Matrix eigenvectors;
  for (auto _ : state) {
    tsaug::linalg::SymmetricEigen(gram, &eigenvalues, &eigenvectors);
    benchmark::DoNotOptimize(eigenvalues.data());
  }
}
BENCHMARK(BM_SymmetricEigen)
    ->Arg(208)
    ->Arg(640)
    ->Arg(2459)
    ->Unit(benchmark::kMillisecond);

// A whole LOOCV ridge fit in the ROCKET regime at paper feature count
// (10,000 kernels give 20,000 features), 4 classes.
void BM_RidgeClassifierCVFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(9);
  tsaug::linalg::Matrix x(n, d);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 4;
  for (auto _ : state) {
    tsaug::linalg::RidgeClassifierCV clf;
    TSAUG_CHECK_OK(clf.TryFit(x, labels, 4));
    benchmark::DoNotOptimize(clf.best_alpha());
  }
}
BENCHMARK(BM_RidgeClassifierCVFit)
    ->Args({640, 20000})
    ->Unit(benchmark::kMillisecond);

void BM_Conv1dForward(benchmark::State& state) {
  const int kernel = static_cast<int>(state.range(0));
  Rng rng(4);
  tsaug::nn::Conv1dLayer conv(4, 8, kernel, rng);
  tsaug::nn::Tensor x({8, 4, 64});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    tsaug::nn::Variable out = conv.Forward(tsaug::nn::Variable(x));
    benchmark::DoNotOptimize(out.value());
  }
}
BENCHMARK(BM_Conv1dForward)->Arg(8)->Arg(16)->Arg(40);

void BM_GruForward(benchmark::State& state) {
  const int time = static_cast<int>(state.range(0));
  Rng rng(5);
  tsaug::nn::Gru gru(4, 10, 2, rng);
  tsaug::nn::Tensor x({8, time, 4});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    tsaug::nn::Variable out = gru.Forward(tsaug::nn::Variable(x));
    benchmark::DoNotOptimize(out.value());
  }
}
BENCHMARK(BM_GruForward)->Arg(12)->Arg(24)->Arg(48);

// One training step of a GRU stack: ZeroGrad, forward and Backward()
// (BM_GruForward times the forward alone). Args: n, T, hidden, layers;
// n 8-32, T 16 and hidden 6 are TimeGAN's shapes in the paper grid.
void BM_GruTrainStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int time = static_cast<int>(state.range(1));
  Rng rng(6);
  tsaug::nn::Gru gru(4, static_cast<int>(state.range(2)),
                     static_cast<int>(state.range(3)), rng);
  tsaug::nn::Tensor x({n, time, 4});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    gru.ZeroGrad();
    tsaug::nn::Variable loss =
        tsaug::nn::Mean(gru.Forward(tsaug::nn::Variable(x)));
    loss.Backward();
    benchmark::DoNotOptimize(loss.value());
  }
}
BENCHMARK(BM_GruTrainStep)->ArgsProduct({{8, 32}, {16}, {6, 10}, {1, 2}});

// TimeGAN's embedder and recovery head at paper scale on PEMS-SF: a
// 963-channel input into Gru(hidden 10, 2 layers), then a 963-wide
// TimeDistributed head; n 32, T 24. These row loops are wide enough to
// run on the thread pool, so set TSAUG_NUM_THREADS to compare counts.
void BM_GruWideTrainStep(benchmark::State& state) {
  constexpr int kN = 32;
  constexpr int kTime = 24;
  constexpr int kChannels = 963;
  Rng rng(7);
  tsaug::nn::Gru gru(kChannels, 10, 2, rng);
  tsaug::nn::TimeDistributed head(10, kChannels, rng);
  tsaug::nn::Tensor x({kN, kTime, kChannels});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    gru.ZeroGrad();
    head.ZeroGrad();
    tsaug::nn::Variable loss = tsaug::nn::Mean(
        head.Forward(gru.Forward(tsaug::nn::Variable(x))));
    loss.Backward();
    benchmark::DoNotOptimize(loss.value());
  }
}
BENCHMARK(BM_GruWideTrainStep)->Unit(benchmark::kMillisecond);

void BM_RocketTransform(benchmark::State& state) {
  const int kernels = static_cast<int>(state.range(0));
  Rng rng(6);
  tsaug::classify::RocketTransform transform(kernels, 7);
  transform.Fit(3, 96);
  tsaug::nn::Tensor x({16, 3, 96});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.Transform(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_RocketTransform)->Arg(100)->Arg(500)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
