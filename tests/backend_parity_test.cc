// Bitwise parity of the simd kernel backend against the scalar
// reference: every dispatched hot path must produce identical bits under
// both backends, at every thread count. The suite skips (rather than
// passes vacuously) on hosts without AVX2 — CI runs at least one leg on
// hardware where it executes.

#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "classify/rocket.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "linalg/distance.h"
#include "linalg/matrix.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace tsaug {
namespace {

namespace kernels = core::kernels;

class BackendGuard {
 public:
  BackendGuard()
      : backend_(kernels::ActiveBackend()), threads_(core::GetNumThreads()) {}
  ~BackendGuard() {
    kernels::SetBackend(backend_);
    core::SetNumThreads(threads_);
  }

 private:
  kernels::Backend backend_;
  int threads_;
};

const std::vector<int> kThreadCounts = {1, 2, 8};

/// Runs `fn` under both backends at every thread count and requires the
/// flattened results to be bitwise identical (memcmp, not ==, so NaNs
/// and signed zeros cannot hide a divergence).
void ExpectBackendParity(const std::function<std::vector<double>()>& fn) {
  ASSERT_TRUE(kernels::SimdAvailable());
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    kernels::SetBackend(kernels::Backend::kScalar);
    const std::vector<double> scalar = fn();
    kernels::SetBackend(kernels::Backend::kSimd);
    ASSERT_EQ(kernels::ActiveBackend(), kernels::Backend::kSimd);
    const std::vector<double> simd = fn();
    ASSERT_EQ(scalar.size(), simd.size());
    EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(),
                             scalar.size() * sizeof(double)))
        << "backend divergence at " << threads << " thread(s)";
  }
}

linalg::Matrix RandomMatrix(int rows, int cols, std::uint64_t seed,
                            double zero_fraction = 0.0) {
  core::Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.Bernoulli(zero_fraction) ? 0.0 : rng.Normal();
  }
  return m;
}

nn::Tensor RandomTensor(const std::vector<int>& shape, std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Tensor t(shape);
  for (double& v : t.data()) v = rng.Normal();
  return t;
}

void Append(std::vector<double>& out, const linalg::Matrix& m) {
  out.insert(out.end(), m.data().begin(), m.data().end());
}

void Append(std::vector<double>& out, const nn::Tensor& t) {
  out.insert(out.end(), t.data().begin(), t.data().end());
}

#define SKIP_WITHOUT_SIMD()                                           \
  if (!kernels::SimdAvailable()) {                                    \
    GTEST_SKIP() << "simd backend unavailable on this host";          \
  }                                                                   \
  BackendGuard guard

TEST(BackendParity, MatMulFamily) {
  SKIP_WITHOUT_SIMD();
  // Zeros in the left operand exercise the saxpy zero-skip path.
  const linalg::Matrix a = RandomMatrix(17, 9, 1, /*zero_fraction=*/0.3);
  const linalg::Matrix at = RandomMatrix(9, 17, 2, /*zero_fraction=*/0.3);
  const linalg::Matrix b = RandomMatrix(9, 13, 3);
  const linalg::Matrix bt = RandomMatrix(13, 9, 4);
  core::Rng rng(5);
  std::vector<double> x(9);
  for (double& v : x) v = rng.Normal();

  ExpectBackendParity([&] {
    std::vector<double> out;
    Append(out, linalg::MatMul(a, b));
    Append(out, linalg::MatMulTransposeA(at, b));
    Append(out, linalg::MatMulTransposeB(a, bt));
    const std::vector<double> y = linalg::MatVec(a, x);
    out.insert(out.end(), y.begin(), y.end());
    return out;
  });
}

TEST(BackendParity, RocketTransform) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor data = RandomTensor({3, 2, 40}, 6);
  classify::RocketTransform transform(/*num_kernels=*/50, /*seed=*/17);
  transform.Fit(/*num_channels=*/2, /*series_length=*/40);

  ExpectBackendParity([&] {
    std::vector<double> out;
    Append(out, transform.Transform(data));
    return out;
  });
}

TEST(BackendParity, NnMatMulForwardBackward) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor ta = RandomTensor({5, 4}, 7);
  const nn::Tensor tb = RandomTensor({4, 3}, 8);

  ExpectBackendParity([&] {
    nn::Variable a(ta, /*requires_grad=*/true);
    nn::Variable b(tb, /*requires_grad=*/true);
    nn::Variable loss = nn::Mean(nn::MatMul(a, b));
    loss.Backward();
    std::vector<double> out;
    Append(out, loss.value());
    Append(out, a.grad());
    Append(out, b.grad());
    return out;
  });
}

TEST(BackendParity, Conv1dSameForwardBackward) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor tx = RandomTensor({2, 3, 20}, 9);
  const nn::Tensor tw = RandomTensor({4, 3, 5}, 10);

  for (int dilation : {1, 2}) {
    ExpectBackendParity([&] {
      nn::Variable x(tx, /*requires_grad=*/true);
      nn::Variable w(tw, /*requires_grad=*/true);
      nn::Variable loss = nn::Mean(nn::Conv1dSame(x, w, dilation));
      loss.Backward();
      std::vector<double> out;
      Append(out, loss.value());
      Append(out, x.grad());
      Append(out, w.grad());
      return out;
    });
  }
}

TEST(BackendParity, Distances) {
  SKIP_WITHOUT_SIMD();
  core::Rng rng(11);
  core::TimeSeries a(3, 19);
  core::TimeSeries b(3, 23);  // unequal lengths exercise the resample path
  for (double& v : a.values()) v = rng.Normal();
  for (double& v : b.values()) v = rng.Normal();
  std::vector<double> u(37), v(37);
  for (double& e : u) e = rng.Normal();
  for (double& e : v) e = rng.Normal();

  ExpectBackendParity([&] {
    return std::vector<double>{
        linalg::EuclideanDistance(u, v),
        linalg::EuclideanDistance(a, b),
        linalg::DtwDistance(a, b, /*window=*/-1),
        linalg::DtwDistance(a, b, /*window=*/4),
    };
  });
}

TEST(BackendParity, ElementwiseChains) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor tx = RandomTensor({6, 7}, 12);
  const nn::Tensor ty = RandomTensor({6, 7}, 13);

  ExpectBackendParity([&] {
    nn::Variable x(tx, /*requires_grad=*/true);
    nn::Variable y(ty, /*requires_grad=*/true);
    nn::Variable r = nn::Mul(nn::Relu(x), nn::Tanh(y));
    nn::Variable s = nn::Sigmoid(nn::Sub(x, y));
    nn::Variable t = nn::OneMinus(nn::ScaleBy(nn::AddConst(r, 0.25), 0.5));
    nn::Variable loss = nn::Mean(nn::Add(nn::Add(r, s), t));
    loss.Backward();
    std::vector<double> out;
    Append(out, loss.value());
    Append(out, x.grad());
    Append(out, y.grad());
    return out;
  });
}

/// The fused gate op must match the unfused composition bitwise — in
/// values AND gradients — under both backends. This pins the GRU cell's
/// numerics to the pre-fusion graph.
TEST(BackendParity, FusedGateMatchesUnfusedComposition) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor ta = RandomTensor({6, 5}, 14);
  const nn::Tensor tb = RandomTensor({6, 5}, 15);
  const nn::Tensor tbias = RandomTensor({5}, 16);

  for (bool use_tanh : {false, true}) {
    auto run = [&](bool fused) {
      nn::Variable a(ta, /*requires_grad=*/true);
      nn::Variable b(tb, /*requires_grad=*/true);
      nn::Variable bias(tbias, /*requires_grad=*/true);
      nn::Variable gate;
      if (fused) {
        gate = use_tanh ? nn::AddRowBiasTanh(a, b, bias)
                        : nn::AddRowBiasSigmoid(a, b, bias);
      } else {
        nn::Variable pre = nn::AddRowBias(nn::Add(a, b), bias);
        gate = use_tanh ? nn::Tanh(pre) : nn::Sigmoid(pre);
      }
      nn::Variable loss = nn::Mean(gate);
      loss.Backward();
      std::vector<double> out;
      Append(out, gate.value());
      Append(out, a.grad());
      Append(out, b.grad());
      Append(out, bias.grad());
      return out;
    };
    // Fused == unfused within the active backend...
    for (kernels::Backend backend :
         {kernels::Backend::kScalar, kernels::Backend::kSimd}) {
      kernels::SetBackend(backend);
      const std::vector<double> fused = run(true);
      const std::vector<double> unfused = run(false);
      ASSERT_EQ(fused.size(), unfused.size());
      EXPECT_EQ(0, std::memcmp(fused.data(), unfused.data(),
                               fused.size() * sizeof(double)))
          << "fused/unfused divergence under "
          << kernels::BackendName(backend);
    }
    // ...and the fused op itself is backend-parity clean.
    ExpectBackendParity([&] { return run(true); });
  }
}

// ---- Fused sequence nodes vs the per-step graph ---------------------------

/// The per-step graph the fused Gru replaced, composed from public ops
/// exactly as the GRU cell's step did: per layer a zero initial state and
/// one step per time index over SelectTime, then StackTime of the top layer.
nn::Variable ReferenceGru(const nn::Variable& x, nn::Gru& gru) {
  const int n = x.value().dim(0);
  const int time = x.value().dim(1);
  const std::vector<nn::Variable> params = gru.AllParameters();
  std::vector<nn::Variable> layer_input;
  for (int t = 0; t < time; ++t) layer_input.push_back(nn::SelectTime(x, t));
  for (size_t l = 0; l < params.size() / 9; ++l) {
    // wz uz bz wr ur br wh uh bh
    const nn::Variable* p = params.data() + 9 * l;
    nn::Variable h(nn::Tensor({n, gru.hidden_size()}));
    std::vector<nn::Variable> outputs;
    for (const nn::Variable& xt : layer_input) {
      const nn::Variable z = nn::AddRowBiasSigmoid(
          nn::MatMul(xt, p[0]), nn::MatMul(h, p[1]), p[2]);
      const nn::Variable r = nn::AddRowBiasSigmoid(
          nn::MatMul(xt, p[3]), nn::MatMul(h, p[4]), p[5]);
      const nn::Variable c = nn::AddRowBiasTanh(
          nn::MatMul(xt, p[6]), nn::MatMul(nn::Mul(r, h), p[7]), p[8]);
      h = nn::Add(nn::Mul(nn::OneMinus(z), h), nn::Mul(z, c));
      outputs.push_back(h);
    }
    layer_input = std::move(outputs);
  }
  return nn::StackTime(layer_input);
}

/// The per-step graph the fused TimeDistributed replaced.
nn::Variable ReferenceTimeDistributed(const nn::Variable& x,
                                      nn::TimeDistributed& head) {
  const std::vector<nn::Variable> wb = head.AllParameters();
  std::vector<nn::Variable> steps;
  for (int t = 0; t < x.value().dim(1); ++t) {
    steps.push_back(
        nn::AddRowBias(nn::MatMul(nn::SelectTime(x, t), wb[0]), wb[1]));
  }
  return nn::StackTime(steps);
}

struct SequenceNets {
  bool fused;
  nn::Variable Gru(nn::Gru& gru, const nn::Variable& x) const {
    return fused ? gru.Forward(x) : ReferenceGru(x, gru);
  }
  nn::Variable Head(nn::TimeDistributed& head, const nn::Variable& x) const {
    return fused ? head.Forward(x) : ReferenceTimeDistributed(x, head);
  }
};

/// Normal entries with every 7th set to exactly 0, so the panel kernel's
/// zero-skip path runs in the input projections.
nn::Tensor SparseRandomTensor(const std::vector<int>& shape,
                              std::uint64_t seed) {
  nn::Tensor t = RandomTensor(shape, seed);
  for (size_t i = 0; i < t.numel(); i += 7) t[i] = 0.0;
  return t;
}

void AppendGrads(std::vector<double>& out, nn::Module& module) {
  for (const nn::Variable& p : module.AllParameters()) Append(out, p.grad());
}

/// Runs `fn(nets)` fused and composed under every available backend at 1
/// and 4 threads: fused must equal composed, and the fused bits must not
/// depend on the backend or the thread count.
void ExpectFusedMatchesComposed(
    const std::function<std::vector<double>(const SequenceNets&)>& fn) {
  BackendGuard guard;
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) backends.push_back(kernels::Backend::kSimd);
  std::vector<double> first;
  for (kernels::Backend backend : backends) {
    for (int threads : {1, 4}) {
      kernels::SetBackend(backend);
      core::SetNumThreads(threads);
      const std::vector<double> fused = fn(SequenceNets{true});
      const std::vector<double> composed = fn(SequenceNets{false});
      ASSERT_EQ(fused.size(), composed.size());
      EXPECT_EQ(0, std::memcmp(fused.data(), composed.data(),
                               fused.size() * sizeof(double)))
          << "fused/composed divergence under "
          << kernels::BackendName(backend) << " at " << threads
          << " thread(s)";
      if (first.empty()) first = fused;
      ASSERT_EQ(first.size(), fused.size());
      EXPECT_EQ(0, std::memcmp(first.data(), fused.data(),
                               fused.size() * sizeof(double)))
          << "fused divergence under " << kernels::BackendName(backend)
          << " at " << threads << " thread(s)";
    }
  }
}

/// Gru + TimeDistributed head, memcmp against the per-step composition:
/// outputs, every parameter gradient and the input gradient, over 1/2/3
/// layers, T = 1/2/16, n = 1/5/32, with the input a constant or an
/// interior node that the loss also reads directly.
TEST(BackendParity, FusedGruMatchesStepComposition) {
  for (int layers : {1, 2, 3}) {
    for (int time : {1, 2, 16}) {
      for (int n : {1, 5, 32}) {
        for (bool input_grad : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "layers=" << layers << " T=" << time << " n=" << n
                       << " input_grad=" << input_grad);
          const std::uint64_t seed =
              static_cast<std::uint64_t>(100 * layers + 10 * time + n);
          const nn::Tensor tx = SparseRandomTensor({n, time, 3}, seed);
          const nn::Tensor target = RandomTensor({n, time, 2}, seed + 1);
          ExpectFusedMatchesComposed([&](const SequenceNets& nets) {
            core::Rng rng(seed + 2);
            nn::Gru gru(3, 4, layers, rng);
            nn::TimeDistributed head(4, 2, rng);
            const nn::Variable leaf(tx, input_grad);
            const nn::Variable input = input_grad ? nn::Sigmoid(leaf) : leaf;
            const nn::Variable hidden = nets.Gru(gru, input);
            const nn::Variable y = nets.Head(head, hidden);
            nn::Variable loss = nn::MseLoss(y, target);
            if (input_grad) {
              loss = nn::Add(loss, nn::Mean(nn::Mul(input, input)));
            }
            loss.Backward();
            std::vector<double> out;
            Append(out, hidden.value());
            Append(out, y.value());
            Append(out, loss.value());
            AppendGrads(out, gru);
            AppendGrads(out, head);
            if (input_grad) Append(out, leaf.grad());
            return out;
          });
        }
      }
    }
  }
}

/// Shapes wide enough that every row loop of both fused nodes exceeds its
/// grain of 131072 / (k·m) rows and runs on the pool at 4 threads: a wide
/// layer-0 input and head output (as for a 963-channel dataset) and a
/// hidden size of 48, whose recurrent products split a batch of 64.
TEST(BackendParity, FusedGruWideShapesMatchStepComposition) {
  constexpr int kN = 64;
  constexpr int kTime = 4;
  constexpr int kWide = 200;
  constexpr int kHidden = 48;
  const nn::Tensor tx = SparseRandomTensor({kN, kTime, kWide}, 50);
  const nn::Tensor target = RandomTensor({kN, kTime, kWide}, 51);
  auto run = [&](const SequenceNets& nets) {
    core::Rng rng(52);
    nn::Gru gru(kWide, kHidden, 2, rng);
    nn::TimeDistributed head(kHidden, kWide, rng);
    const nn::Variable leaf(tx, /*requires_grad=*/true);
    const nn::Variable hidden = nets.Gru(gru, leaf);
    const nn::Variable y = nets.Head(head, hidden);
    nn::Variable loss = nn::MseLoss(y, target);
    loss.Backward();
    std::vector<double> out;
    Append(out, hidden.value());
    Append(out, y.value());
    Append(out, loss.value());
    AppendGrads(out, gru);
    AppendGrads(out, head);
    Append(out, leaf.grad());
    return out;
  };
  ExpectFusedMatchesComposed(run);

  // Every row loop of the fused nodes takes the pool. Forward: per layer
  // the input projection and two recurrent products a step, then the head.
  // Backward: the head's weight and input loops; per layer three gate loops
  // a step and two weight loops; layer 0's input chain, and layer 1's
  // chain into layer 0 once a step.
  BackendGuard guard;
  core::SetNumThreads(4);
  core::Rng rng(53);
  nn::Gru gru(kWide, kHidden, 2, rng);
  nn::TimeDistributed head(kHidden, kWide, rng);
  const nn::Variable leaf(tx, /*requires_grad=*/true);
  core::trace::Reset();
  core::trace::Enable();
  nn::Variable loss = nn::Mean(head.Forward(gru.Forward(leaf)));
  const std::int64_t forward_regions =
      core::trace::CounterValue("parallel.pool_regions");
  loss.Backward();  // Mean's backward runs no ParallelFor
  const std::int64_t backward_regions =
      core::trace::CounterValue("parallel.pool_regions") - forward_regions;
  core::trace::Disable();
  core::trace::Reset();
  EXPECT_EQ(forward_regions, 2 * (1 + 2 * kTime) + 1);
  EXPECT_EQ(backward_regions, 2 + 2 * (3 * kTime + 2) + 1 + kTime);
}

/// TimeGAN's discriminator step: one loss applies the same Gru and head to
/// three inputs, two of which (e and the supervised s(e)) share upstream.
TEST(BackendParity, FusedGruSharedAcrossInputsMatchesStepComposition) {
  constexpr int kN = 5;
  constexpr int kTime = 16;
  const nn::Tensor noise = SparseRandomTensor({kN, kTime, 3}, 40);
  const nn::Tensor real = RandomTensor({kN, kTime, 4}, 41);
  const nn::Tensor ones({kN, kTime, 1}, 1.0);
  const nn::Tensor zeros({kN, kTime, 1}, 0.0);
  ExpectFusedMatchesComposed([&](const SequenceNets& nets) {
    core::Rng rng(42);
    nn::Gru generator(3, 4, 2, rng);
    nn::TimeDistributed generator_head(4, 4, rng);
    nn::Gru supervisor(4, 4, 1, rng);
    nn::Gru discriminator(4, 4, 2, rng);
    nn::TimeDistributed discriminator_head(4, 1, rng);
    auto discriminate = [&](const nn::Variable& h) {
      return nets.Head(discriminator_head, nets.Gru(discriminator, h));
    };
    const nn::Variable real_leaf(real, /*requires_grad=*/true);
    const nn::Variable h_real = nn::Sigmoid(real_leaf);
    const nn::Variable e = nn::Sigmoid(nets.Head(
        generator_head, nets.Gru(generator, nn::Variable(noise))));
    const nn::Variable s = nn::Sigmoid(nets.Gru(supervisor, e));
    nn::Variable loss = nn::Add(
        nn::BceWithLogitsLoss(discriminate(h_real), ones),
        nn::Add(nn::BceWithLogitsLoss(discriminate(s), zeros),
                nn::ScaleBy(nn::BceWithLogitsLoss(discriminate(e), zeros),
                            0.5)));
    loss.Backward();
    std::vector<double> out;
    Append(out, loss.value());
    for (nn::Module* m :
         std::initializer_list<nn::Module*>{&generator, &generator_head,
                                            &supervisor, &discriminator,
                                            &discriminator_head}) {
      AppendGrads(out, *m);
    }
    Append(out, real_leaf.grad());
    return out;
  });
}

}  // namespace
}  // namespace tsaug
