// Numerical gradient checks for every autodiff op: the analytic backward of
// each op is compared against central differences on random inputs. These
// are the load-bearing tests for InceptionTime and TimeGAN correctness.
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace tsaug::nn {
namespace {

Tensor RandomTensor(const std::vector<int>& shape, core::Rng& rng,
                    double scale = 1.0) {
  Tensor t(shape);
  for (double& v : t.data()) v = rng.Normal(0.0, scale);
  return t;
}

// Checks d(loss)/d(leaf_i) for every i of every leaf against central
// differences. `build_loss` must construct the graph from the leaf tensors.
void CheckGradients(std::vector<Tensor>& leaves,
                    const std::function<Variable(std::vector<Variable>&)>& build_loss,
                    double tolerance = 1e-6) {
  // Analytic gradients.
  std::vector<Variable> vars;
  vars.reserve(leaves.size());
  for (Tensor& leaf : leaves) vars.emplace_back(leaf, /*requires_grad=*/true);
  Variable loss = build_loss(vars);
  loss.Backward();

  auto loss_value = [&]() {
    std::vector<Variable> fresh;
    fresh.reserve(leaves.size());
    for (Tensor& leaf : leaves) fresh.emplace_back(leaf, false);
    return build_loss(fresh).value().scalar();
  };

  for (size_t leaf_idx = 0; leaf_idx < leaves.size(); ++leaf_idx) {
    for (size_t i = 0; i < leaves[leaf_idx].numel(); ++i) {
      const double numeric =
          NumericalGradient(loss_value, leaves[leaf_idx], i);
      const double analytic = vars[leaf_idx].grad()[i];
      EXPECT_NEAR(analytic, numeric, tolerance)
          << "leaf " << leaf_idx << " entry " << i;
    }
  }
}

TEST(GradCheck, MatMul) {
  core::Rng rng(1);
  std::vector<Tensor> leaves = {RandomTensor({3, 4}, rng),
                                RandomTensor({4, 2}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(MatMul(v[0], v[1]));
  });
}

TEST(GradCheck, AddSubMul) {
  core::Rng rng(2);
  std::vector<Tensor> leaves = {RandomTensor({2, 3}, rng),
                                RandomTensor({2, 3}, rng),
                                RandomTensor({2, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(Sub(Add(v[0], v[1]), v[2]), v[1]));
  });
}

TEST(GradCheck, AddRowBias) {
  core::Rng rng(3);
  std::vector<Tensor> leaves = {RandomTensor({4, 3}, rng),
                                RandomTensor({3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(AddRowBias(v[0], v[1]));
  });
}

TEST(GradCheck, Activations) {
  core::Rng rng(4);
  std::vector<Tensor> leaves = {RandomTensor({3, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Sigmoid(Tanh(v[0])));
  });
  // Relu away from the kink.
  std::vector<Tensor> relu_leaves = {RandomTensor({3, 3}, rng)};
  for (double& x : relu_leaves[0].data()) {
    if (std::fabs(x) < 0.1) x += 0.5;
  }
  CheckGradients(relu_leaves, [](std::vector<Variable>& v) {
    return Mean(Relu(v[0]));
  });
}

TEST(GradCheck, ScalarOpsAndOneMinus) {
  core::Rng rng(5);
  std::vector<Tensor> leaves = {RandomTensor({2, 2}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(OneMinus(AddConst(ScaleBy(v[0], -1.5), 0.3)));
  });
}

TEST(GradCheck, SqrtExpReshape) {
  core::Rng rng(42);
  std::vector<Tensor> leaves = {RandomTensor({2, 3}, rng, 0.5)};
  // Keep sqrt inputs positive.
  for (double& v : leaves[0].data()) v = std::fabs(v) + 0.5;
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    Variable reshaped = Reshape(v[0], {3, 2});
    return Mean(Mul(Sqrt(reshaped), Exp(ScaleBy(reshaped, 0.3))));
  });
}

TEST(GradCheck, ConcatFeatures) {
  core::Rng rng(6);
  std::vector<Tensor> leaves = {RandomTensor({2, 2}, rng),
                                RandomTensor({2, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(ConcatFeatures({v[0], v[1]}),
                    ConcatFeatures({v[0], v[1]})));
  });
}

TEST(GradCheck, SelectAndStackTime) {
  core::Rng rng(7);
  std::vector<Tensor> leaves = {RandomTensor({2, 4, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    std::vector<Variable> steps;
    for (int t = 3; t >= 0; --t) steps.push_back(SelectTime(v[0], t));
    return Mean(Mul(StackTime(steps), StackTime(steps)));
  });
}

// Checks every parameter gradient of `module` and the input gradient of a
// sequence layer's forward against central differences, with the loss
// mean(y * y) so each output element gets a distinct upstream gradient.
void CheckSequenceLayer(
    Module& module, Tensor x,
    const std::function<Variable(const Variable&)>& forward) {
  auto loss_of = [&](const Variable& input) {
    const Variable y = forward(input);
    return Mean(Mul(y, y));
  };
  const Variable input(x, /*requires_grad=*/true);
  module.ZeroGrad();
  loss_of(input).Backward();
  auto loss_value = [&] { return loss_of(Variable(x)).value().scalar(); };
  std::vector<Variable> params = module.AllParameters();
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t i = 0; i < params[p].value().numel(); ++i) {
      const double numeric =
          NumericalGradient(loss_value, params[p].mutable_value(), i);
      EXPECT_NEAR(params[p].grad()[i], numeric, 1e-6)
          << "parameter " << p << " entry " << i;
    }
  }
  for (size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(input.grad()[i], NumericalGradient(loss_value, x, i), 1e-6)
        << "input entry " << i;
  }
}

TEST(GradCheck, FusedGruOneLayer) {
  core::Rng rng(30);
  Gru gru(2, 3, /*num_layers=*/1, rng);
  CheckSequenceLayer(gru, RandomTensor({2, 4, 2}, rng),
                     [&](const Variable& x) { return gru.Forward(x); });
}

TEST(GradCheck, FusedGruTwoLayers) {
  core::Rng rng(31);
  Gru gru(2, 3, /*num_layers=*/2, rng);
  CheckSequenceLayer(gru, RandomTensor({2, 4, 2}, rng),
                     [&](const Variable& x) { return gru.Forward(x); });
}

TEST(GradCheck, FusedTimeDistributed) {
  core::Rng rng(32);
  TimeDistributed td(3, 2, rng);
  // Glorot init leaves the bias at zero; a random bias checks its chain
  // away from the origin.
  td.AllParameters()[1].mutable_value() = RandomTensor({2}, rng);
  CheckSequenceLayer(td, RandomTensor({2, 4, 3}, rng),
                     [&](const Variable& x) { return td.Forward(x); });
}

class Conv1dGradCheck
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Conv1dGradCheck, MatchesNumerical) {
  const auto [kernel, dilation] = GetParam();
  core::Rng rng(static_cast<size_t>(8 + kernel + dilation));
  std::vector<Tensor> leaves = {RandomTensor({2, 3, 9}, rng),
                                RandomTensor({2, 3, kernel}, rng)};
  CheckGradients(leaves, [dilation = dilation](std::vector<Variable>& v) {
    return Mean(Mul(Conv1dSame(v[0], v[1], dilation),
                    Conv1dSame(v[0], v[1], dilation)));
  }, 1e-5);
}

// Odd and even kernels (InceptionTime uses even ones), with dilation.
INSTANTIATE_TEST_SUITE_P(Kernels, Conv1dGradCheck,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{3, 1},
                                           std::tuple{4, 1}, std::tuple{5, 2},
                                           std::tuple{8, 1}, std::tuple{9, 3}));

TEST(GradCheck, AddChannelBias) {
  core::Rng rng(9);
  std::vector<Tensor> leaves = {RandomTensor({2, 3, 5}, rng),
                                RandomTensor({3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(AddChannelBias(v[0], v[1]));
  });
}

TEST(GradCheck, MaxPool1dSame) {
  core::Rng rng(10);
  std::vector<Tensor> leaves = {RandomTensor({2, 2, 7}, rng)};
  // Ensure distinct values so the argmax is stable under perturbation.
  for (size_t i = 0; i < leaves[0].numel(); ++i) leaves[0][i] += 0.01 * static_cast<double>(i);
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(MaxPool1dSame(v[0], 3), MaxPool1dSame(v[0], 3)));
  });
}

TEST(GradCheck, GlobalAvgPool) {
  core::Rng rng(11);
  std::vector<Tensor> leaves = {RandomTensor({3, 2, 5}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(GlobalAvgPool(v[0]), GlobalAvgPool(v[0])));
  });
}

TEST(GradCheck, ConcatChannels) {
  core::Rng rng(12);
  std::vector<Tensor> leaves = {RandomTensor({2, 2, 4}, rng),
                                RandomTensor({2, 3, 4}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    Variable cat = ConcatChannels({v[0], v[1]});
    return Mean(Mul(cat, cat));
  });
}

TEST(GradCheck, BatchNormTrain) {
  core::Rng rng(13);
  std::vector<Tensor> leaves = {RandomTensor({3, 2, 4}, rng),
                                RandomTensor({2}, rng, 0.5),
                                RandomTensor({2}, rng, 0.5)};
  leaves[1][0] += 1.0;  // gamma away from zero
  leaves[1][1] += 1.0;
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    Variable out = BatchNormTrain(v[0], v[1], v[2], 1e-5, nullptr, nullptr);
    return Mean(Mul(out, out));
  }, 1e-5);
}

TEST(GradCheck, BatchNormInference) {
  core::Rng rng(14);
  std::vector<Tensor> leaves = {RandomTensor({2, 2, 3}, rng),
                                RandomTensor({2}, rng, 0.5),
                                RandomTensor({2}, rng, 0.5)};
  const std::vector<double> mean = {0.1, -0.2};
  const std::vector<double> var = {1.5, 0.7};
  CheckGradients(leaves, [&mean, &var](std::vector<Variable>& v) {
    Variable out = BatchNormInference(v[0], v[1], v[2], mean, var, 1e-5);
    return Mean(Mul(out, out));
  });
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  core::Rng rng(15);
  std::vector<Tensor> leaves = {RandomTensor({4, 3}, rng)};
  const std::vector<int> labels = {0, 2, 1, 2};
  CheckGradients(leaves, [&labels](std::vector<Variable>& v) {
    return SoftmaxCrossEntropy(v[0], labels);
  });
}

TEST(GradCheck, MseLoss) {
  core::Rng rng(16);
  std::vector<Tensor> leaves = {RandomTensor({3, 4}, rng)};
  const Tensor target = RandomTensor({3, 4}, rng);
  CheckGradients(leaves, [&target](std::vector<Variable>& v) {
    return MseLoss(v[0], target);
  });
}

TEST(GradCheck, BceWithLogits) {
  core::Rng rng(17);
  std::vector<Tensor> leaves = {RandomTensor({3, 3}, rng)};
  Tensor targets({3, 3});
  for (double& v : targets.data()) v = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  CheckGradients(leaves, [&targets](std::vector<Variable>& v) {
    return BceWithLogitsLoss(v[0], targets);
  });
}

TEST(GradCheck, MomentMatchLoss) {
  core::Rng rng(18);
  std::vector<Tensor> leaves = {RandomTensor({6, 3}, rng)};
  const std::vector<double> target_mean = {0.5, -0.3, 0.1};
  const std::vector<double> target_std = {1.2, 0.8, 1.0};
  CheckGradients(leaves, [&](std::vector<Variable>& v) {
    return MomentMatchLoss(v[0], target_mean, target_std);
  }, 1e-5);
}

TEST(Softmax, RowsSumToOne) {
  core::Rng rng(19);
  const Tensor logits = RandomTensor({5, 4}, rng, 3.0);
  const Tensor probs = Softmax(logits);
  for (int i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 4; ++j) {
      EXPECT_GE(probs.at(i, j), 0.0);
      sum += probs.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor logits({1, 2});
  logits.at(0, 0) = 1000.0;
  logits.at(0, 1) = 999.0;
  const Tensor probs = Softmax(logits);
  EXPECT_NEAR(probs.at(0, 0) + probs.at(0, 1), 1.0, 1e-12);
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
}

}  // namespace
}  // namespace tsaug::nn
