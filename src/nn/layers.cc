#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/trace.h"

namespace tsaug::nn {

void Module::SetTraining(bool training) {
  for (Module* child : Children()) child->SetTraining(training);
}

std::vector<Variable> Module::AllParameters() {
  std::vector<Variable> all = Parameters();
  for (Module* child : Children()) {
    const std::vector<Variable> sub = child->AllParameters();
    all.insert(all.end(), sub.begin(), sub.end());
  }
  return all;
}

void Module::ZeroGrad() {
  for (Variable& p : AllParameters()) p.ZeroGrad();
}

std::vector<Tensor> Module::GetState() {
  std::vector<Tensor> state;
  for (const Variable& p : AllParameters()) state.push_back(p.value());
  // Extra state of the whole subtree, own first then children (the same
  // order ConsumeExtraState walks).
  struct Walker {
    static void Append(Module* m, std::vector<Tensor>* out) {
      m->AppendExtraState(out);
      for (Module* child : m->Children()) Append(child, out);
    }
  };
  Walker::Append(this, &state);
  return state;
}

void Module::SetState(const std::vector<Tensor>& state) {
  std::vector<Variable> params = AllParameters();
  TSAUG_CHECK(state.size() >= params.size());
  size_t pos = 0;
  for (Variable& p : params) {
    TSAUG_CHECK(p.value().SameShape(state[pos]));
    p.mutable_value() = state[pos++];
  }
  struct Walker {
    static void Consume(Module* m, const std::vector<Tensor>& state,
                        size_t* pos) {
      m->ConsumeExtraState(state, pos);
      for (Module* child : m->Children()) Consume(child, state, pos);
    }
  };
  Walker::Consume(this, state, &pos);
  TSAUG_CHECK(pos == state.size());
}

void GlorotInit(Tensor& t, int fan_in, int fan_out, core::Rng& rng) {
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (double& v : t.data()) v = rng.Uniform(-limit, limit);
}

Linear::Linear(int in_features, int out_features, core::Rng& rng) {
  Tensor w({in_features, out_features});
  GlorotInit(w, in_features, out_features, rng);
  w_ = Variable(std::move(w), /*requires_grad=*/true);
  b_ = Variable(Tensor({out_features}), /*requires_grad=*/true);
}

Variable Linear::Forward(const Variable& x) const {
  return AddRowBias(MatMul(x, w_), b_);
}

Conv1dLayer::Conv1dLayer(int in_channels, int out_channels, int kernel_size,
                         core::Rng& rng, int dilation, bool use_bias)
    : dilation_(dilation), use_bias_(use_bias) {
  Tensor w({out_channels, in_channels, kernel_size});
  GlorotInit(w, in_channels * kernel_size, out_channels * kernel_size, rng);
  w_ = Variable(std::move(w), /*requires_grad=*/true);
  if (use_bias_) {
    b_ = Variable(Tensor({out_channels}), /*requires_grad=*/true);
  }
}

Variable Conv1dLayer::Forward(const Variable& x) const {
  Variable out = Conv1dSame(x, w_, dilation_);
  if (use_bias_) out = AddChannelBias(out, b_);
  return out;
}

std::vector<Variable> Conv1dLayer::Parameters() const {
  if (use_bias_) return {w_, b_};
  return {w_};
}

BatchNorm1d::BatchNorm1d(int channels, double momentum, double eps)
    : running_mean_(static_cast<size_t>(channels), 0.0),
      running_var_(static_cast<size_t>(channels), 1.0),
      momentum_(momentum),
      eps_(eps) {
  gamma_ = Variable(Tensor({channels}, 1.0), /*requires_grad=*/true);
  beta_ = Variable(Tensor({channels}), /*requires_grad=*/true);
}

Variable BatchNorm1d::Forward(const Variable& x) {
  if (!training_) {
    return BatchNormInference(x, gamma_, beta_, running_mean_, running_var_,
                              eps_);
  }
  std::vector<double> batch_mean;
  std::vector<double> batch_var;
  Variable out = BatchNormTrain(x, gamma_, beta_, eps_, &batch_mean,
                                &batch_var);
  if (!stats_initialized_) {
    running_mean_ = batch_mean;
    running_var_ = batch_var;
    stats_initialized_ = true;
  } else {
    for (size_t c = 0; c < running_mean_.size(); ++c) {
      running_mean_[c] =
          (1.0 - momentum_) * running_mean_[c] + momentum_ * batch_mean[c];
      running_var_[c] =
          (1.0 - momentum_) * running_var_[c] + momentum_ * batch_var[c];
    }
  }
  return out;
}

void BatchNorm1d::AppendExtraState(std::vector<Tensor>* state) const {
  Tensor mean({static_cast<int>(running_mean_.size())});
  Tensor var({static_cast<int>(running_var_.size())});
  mean.data().assign(running_mean_.begin(), running_mean_.end());
  var.data().assign(running_var_.begin(), running_var_.end());
  state->push_back(std::move(mean));
  state->push_back(std::move(var));
}

void BatchNorm1d::ConsumeExtraState(const std::vector<Tensor>& state,
                                    size_t* pos) {
  TSAUG_CHECK(*pos + 2 <= state.size());
  const auto& mean = state[(*pos)++].data();
  const auto& var = state[(*pos)++].data();
  running_mean_.assign(mean.begin(), mean.end());
  running_var_.assign(var.begin(), var.end());
  stats_initialized_ = true;
}

GruCell::GruCell(int input_size, int hidden_size, core::Rng& rng)
    : hidden_size_(hidden_size) {
  auto make_weight = [&](int rows, int cols) {
    Tensor w({rows, cols});
    GlorotInit(w, rows, cols, rng);
    return Variable(std::move(w), /*requires_grad=*/true);
  };
  auto make_bias = [&](int size) {
    return Variable(Tensor({size}), /*requires_grad=*/true);
  };
  wz_ = make_weight(input_size, hidden_size);
  uz_ = make_weight(hidden_size, hidden_size);
  bz_ = make_bias(hidden_size);
  wr_ = make_weight(input_size, hidden_size);
  ur_ = make_weight(hidden_size, hidden_size);
  br_ = make_bias(hidden_size);
  wh_ = make_weight(input_size, hidden_size);
  uh_ = make_weight(hidden_size, hidden_size);
  bh_ = make_bias(hidden_size);
}

std::vector<Variable> GruCell::Parameters() const {
  return {wz_, uz_, bz_, wr_, ur_, br_, wh_, uh_, bh_};
}

Gru::Gru(int input_size, int hidden_size, int num_layers, core::Rng& rng)
    : hidden_size_(hidden_size) {
  TSAUG_CHECK(num_layers >= 1);
  for (int layer = 0; layer < num_layers; ++layer) {
    const int in = layer == 0 ? input_size : hidden_size;
    cells_.push_back(std::make_unique<GruCell>(in, hidden_size, rng));
  }
}

namespace {

// The fused sequence nodes below replace per-step graphs (SelectTime, a
// handful of MatMul / gate / elementwise nodes per step, StackTime) and
// must reproduce them bit for bit, values and gradients. Every value is
// built from the same KernelTable calls as the composed graph, and every
// gradient buffer receives the same terms in the same order as
// Variable::Backward's reverse post-order over that graph (DESIGN.md,
// "Fused GRU sequence"). Intermediate gradients that the graph held in
// zero-initialised node buffers are accumulated into zeroed scratch here.

using Buffer = std::vector<double>;
using NodePtr = std::shared_ptr<Node>;

Buffer Zeros(std::int64_t count) {
  return Buffer(static_cast<size_t>(count), 0.0);
}

void Zero(Buffer& b) { std::fill(b.begin(), b.end(), 0.0); }

// The rows of a [rows, k] x [k, m] product one chunk takes: at least 2^17
// multiply-adds, four times MatMul's 2^15. One fused loop does the work of
// T per-step MatMuls, so at MatMul's grain TimeGAN's small loops (about
// 40K multiply-adds at the tiny preset) woke the pool for two uneven
// chunks, and the wake-up cost more than the split saved.
std::int64_t PanelGrain(std::int64_t k, std::int64_t m) {
  return std::max<std::int64_t>(1, 131072 / std::max<std::int64_t>(1, k * m));
}

// fn(lo, hi) over chunks of [0, count), at least `grain` long, on the
// thread pool. Every caller's index q writes only output rows that no
// other q touches, each through the same calls in the same order as a
// serial loop, so the bits do not depend on the thread count. Ranges
// within one grain skip ParallelFor, as its inline path would, without
// building its std::function.
template <typename Fn>
void ForEachChunk(std::int64_t count, std::int64_t grain, const Fn& fn) {
  if (count <= grain) {
    fn(std::int64_t{0}, count);
  } else {
    core::ParallelFor(0, count, grain, fn);
  }
}

// fn(q) for each q in [0, count), as ForEachChunk.
template <typename Fn>
void ForEachRow(std::int64_t count, std::int64_t grain, const Fn& fn) {
  ForEachChunk(count, grain, [&fn](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t q = lo; q < hi; ++q) fn(q);
  });
}

// Row k of the result is row k of every part side by side, so one panel
// product computes all the parts' products at once: each output element
// is still its own ascending-k dot over the same operands.
Buffer ConcatColumns(std::initializer_list<const Tensor*> parts) {
  const int rows = (*parts.begin())->dim(0);
  Buffer out;
  for (int k = 0; k < rows; ++k) {
    for (const Tensor* part : parts) {
      const double* row = part->row2(k);
      out.insert(out.end(), row, row + part->dim(1));
    }
  }
  return out;
}

// The parts' transposes stacked vertically: the pure copy of B^T that
// MatMul's backward makes before its dA panel, one block per part.
Buffer StackTransposed(std::initializer_list<const Tensor*> parts) {
  Buffer out;
  for (const Tensor* part : parts) {
    for (int j = 0; j < part->dim(1); ++j) {
      for (int k = 0; k < part->dim(0); ++k) out.push_back(part->at(k, j));
    }
  }
  return out;
}

// GruCell::Parameters() order.
enum GruParam { kWz, kUz, kBz, kWr, kUr, kBr, kWh, kUh, kBh, kGruParams };

// Gate blocks of a layer's fused projection and gate-gradient rows. The
// order r, h, z is the order in which the per-step graph routed gradient
// into a layer input (reset, then candidate, then update gate), so one
// panel over a [r | h | z] gradient row replays those three MatMul chains.
enum GateBlock : std::int64_t { kGateR = 0, kGateH = 1, kGateZ = 2 };

// Forward state a fused GRU call keeps for its backward pass. Per-step
// buffers are reversed-time-major: step t of batch row i is row
// (T-1-t)*n + i, in "slot" s = T-1-t. Walking the rows upward visits t
// descending, i ascending — the order the per-step graph accumulated
// weight and bias gradients in — so one strided row_panel_matmul over all
// T*n rows reproduces each weight gradient's sum.
struct GruTape {
  struct Layer {
    Buffer r, c, z, one_minus_z;  // [T*n, H] gate activations
    Buffer rh;                    // [T*n, H] r * h_{t-1}
    Buffer h;  // [(T+1)*n, H]: slot s holds h_{T-1-s}, slot T the zero state
  };
  std::int64_t n = 0, time = 0, input = 0, hidden = 0;
  Buffer x;  // [T*n, input] the layer-0 input
  std::vector<Layer> layers;
};

void GruBackward(const GruTape& tape, Node& self) {
  TSAUG_TRACE_SCOPE("nn.gru.bwd");
  const auto& kb = core::kernels::Active();
  const std::int64_t n = tape.n;
  const std::int64_t time = tape.time;
  const std::int64_t hid = tape.hidden;
  const std::int64_t rows = n * time;
  const std::int64_t nh = n * hid;
  const std::int64_t gw = 3 * hid;  // gate-gradient row width
  const int num_layers = static_cast<int>(tape.layers.size());
  auto param = [&](int layer, int k) -> Node& {
    return *self.parents[static_cast<size_t>(1 + layer * kGruParams + k)];
  };

  Buffer g = Zeros(rows * gw);  // this layer's [r | h | z] gate gradients
  // The layer above's, for its input chain (the two swap per layer).
  Buffer g_upper = num_layers > 1 ? Zeros(rows * gw) : Buffer();
  Buffer w_upper_t;             // the layer above's [wr^T; wh^T; wz^T]
  Buffer dh = Zeros(nh);        // dL/dh_t, complete at step t
  Buffer dh_prev = Zeros(nh);   // dL/dh_{t-1}, accumulating
  Buffer zg = Zeros(nh), cg = Zeros(nh), mg = Zeros(nh), rg = Zeros(nh),
         omg = Zeros(nh);
  for (int l = num_layers - 1; l >= 0; --l) {
    const GruTape::Layer& layer = tape.layers[static_cast<size_t>(l)];
    const bool top = l == num_layers - 1;
    const Buffer uh_t = StackTransposed({&param(l, kUh).value});
    const Buffer ur_t = StackTransposed({&param(l, kUr).value});
    const Buffer uz_t = StackTransposed({&param(l, kUz).value});

    // The top layer's h_t takes its StackTime slice before anything else.
    Zero(dh);
    if (top) {
      for (int i = 0; i < n; ++i) {
        kb.ew_add_acc(self.grad.row3(i, static_cast<int>(time - 1)),
                      dh.data() + i * hid, hid);
      }
    }
    for (std::int64_t t = time - 1; t >= 0; --t) {
      const std::int64_t s = time - 1 - t;
      const double* hp = layer.h.data() + (s + 1) * nh;
      const double* r = layer.r.data() + s * nh;
      const double* c = layer.c.data() + s * nh;
      const double* z = layer.z.data() + s * nh;
      const double* omz = layer.one_minus_z.data() + s * nh;
      double* gs = g.data() + s * n * gw;
      // A lower layer's h_t has step t+1's recurrent terms already; the
      // layer above's input chain for step t comes after them.
      if (!top) {
        ForEachRow(n, PanelGrain(gw, hid), [&](std::int64_t i) {
          kb.row_panel_matmul(g_upper.data() + (s * n + i) * gw, 1, gw,
                              w_upper_t.data(), hid, dh.data() + i * hid,
                              hid);
        });
      }
      Zero(dh_prev);
      if (top && t > 0) {
        for (int i = 0; i < n; ++i) {
          kb.ew_add_acc(self.grad.row3(i, static_cast<int>(t - 1)),
                        dh_prev.data() + i * hid, hid);
        }
      }
      // Mul(z, c).
      Zero(zg);
      kb.ew_mul_acc(dh.data(), c, zg.data(), nh);
      Zero(cg);
      kb.ew_mul_acc(dh.data(), z, cg.data(), nh);
      // AddRowBiasTanh, then MatMul(Mul(r, h), uh)'s dA.
      Zero(mg);
      ForEachRow(n, PanelGrain(hid, hid), [&](std::int64_t i) {
        double* gh = gs + i * gw + kGateH * hid;
        kb.ew_tanh_bwd(cg.data() + i * hid, c + i * hid, gh, hid);
        kb.row_panel_matmul(gh, 1, hid, uh_t.data(), hid,
                            mg.data() + i * hid, hid);
      });
      // Mul(r, h): the first recurrent term of dh_{t-1}.
      Zero(rg);
      kb.ew_mul_acc(mg.data(), hp, rg.data(), nh);
      kb.ew_mul_acc(mg.data(), r, dh_prev.data(), nh);
      // AddRowBiasSigmoid (reset), then MatMul(h, ur)'s dA.
      ForEachRow(n, PanelGrain(hid, hid), [&](std::int64_t i) {
        double* gr = gs + i * gw + kGateR * hid;
        kb.ew_sigmoid_bwd(rg.data() + i * hid, r + i * hid, gr, hid);
        kb.row_panel_matmul(gr, 1, hid, ur_t.data(), hid,
                            dh_prev.data() + i * hid, hid);
      });
      // Mul(OneMinus(z), h), then OneMinus.
      Zero(omg);
      kb.ew_mul_acc(dh.data(), hp, omg.data(), nh);
      kb.ew_mul_acc(dh.data(), omz, dh_prev.data(), nh);
      kb.ew_sub_acc(omg.data(), zg.data(), nh);
      // AddRowBiasSigmoid (update), then MatMul(h, uz)'s dA.
      ForEachRow(n, PanelGrain(hid, hid), [&](std::int64_t i) {
        double* gz = gs + i * gw + kGateZ * hid;
        kb.ew_sigmoid_bwd(zg.data() + i * hid, z + i * hid, gz, hid);
        kb.row_panel_matmul(gz, 1, hid, uz_t.data(), hid,
                            dh_prev.data() + i * hid, hid);
      });
      std::swap(dh, dh_prev);  // the gradient of h_{-1} is dropped
    }

    // Weight and bias chains over all T*n rows, t descending, i ascending.
    // Index p owns row p of each weight gradient, as in MatMul's dB.
    const double* input =
        l == 0 ? tape.x.data()
               : tape.layers[static_cast<size_t>(l - 1)].h.data();
    const std::int64_t in = l == 0 ? tape.input : hid;
    ForEachRow(in, PanelGrain(rows, gw), [&](std::int64_t p) {
      for (auto [gate, w] : {std::pair{kGateR, kWr}, std::pair{kGateH, kWh},
                             std::pair{kGateZ, kWz}}) {
        kb.row_panel_matmul(input + p, in, rows, g.data() + gate * hid, gw,
                            param(l, w).grad.row2(static_cast<int>(p)), hid);
      }
    });
    const double* h_prev = layer.h.data() + nh;
    ForEachRow(hid, PanelGrain(rows, gw), [&](std::int64_t p) {
      const int row = static_cast<int>(p);
      kb.row_panel_matmul(h_prev + p, hid, rows, g.data() + kGateR * hid, gw,
                          param(l, kUr).grad.row2(row), hid);
      kb.row_panel_matmul(h_prev + p, hid, rows, g.data() + kGateZ * hid, gw,
                          param(l, kUz).grad.row2(row), hid);
      kb.row_panel_matmul(layer.rh.data() + p, hid, rows,
                          g.data() + kGateH * hid, gw,
                          param(l, kUh).grad.row2(row), hid);
    });
    for (std::int64_t q = 0; q < rows; ++q) {
      for (auto [gate, b] : {std::pair{kGateR, kBr}, std::pair{kGateH, kBh},
                             std::pair{kGateZ, kBz}}) {
        kb.ew_add_acc(g.data() + q * gw + gate * hid,
                      param(l, b).grad.data().data(), hid);
      }
    }

    // The chain into this layer's input: one panel over each [r | h | z]
    // gradient row and [wr^T; wh^T; wz^T].
    Buffer w_t = StackTransposed({&param(l, kWr).value, &param(l, kWh).value,
                                  &param(l, kWz).value});
    if (l > 0) {
      std::swap(g, g_upper);
      w_upper_t = std::move(w_t);
      continue;
    }
    Node& px = *self.parents[0];
    if (!px.requires_grad) continue;
    // SelectTime's zero-initialised gradient, then its add into x; row
    // q = t*n + i owns x's row (i, t).
    ForEachChunk(rows, PanelGrain(gw, in),
                 [&](std::int64_t lo, std::int64_t hi) {
      Buffer dsel = Zeros(in);
      for (std::int64_t q = lo; q < hi; ++q) {
        const std::int64_t t = q / n;
        const std::int64_t i = q % n;
        Zero(dsel);
        kb.row_panel_matmul(g.data() + ((time - 1 - t) * n + i) * gw, 1, gw,
                            w_t.data(), in, dsel.data(), in);
        kb.ew_add_acc(dsel.data(),
                      px.grad.row3(static_cast<int>(i), static_cast<int>(t)),
                      in);
      }
    });
  }
}

// One graph node for a whole GRU stack over x [n, T, in]; `layers` holds
// each layer's GruCell::Parameters().
Variable GruSequence(const Variable& x,
                     const std::vector<std::vector<Variable>>& layers) {
  TSAUG_TRACE_SCOPE("nn.gru");
  const auto& kt = core::kernels::Active();
  auto tape = std::make_shared<GruTape>();
  const Tensor& xv = x.value();
  const std::int64_t n = xv.dim(0);
  const std::int64_t time = xv.dim(1);
  const std::int64_t hid = layers[0][kUz].value().dim(0);
  const std::int64_t rows = n * time;
  const std::int64_t nh = n * hid;
  const std::int64_t gw = 3 * hid;
  tape->n = n;
  tape->time = time;
  tape->input = xv.dim(2);
  tape->hidden = hid;
  tape->x.reserve(static_cast<size_t>(rows * tape->input));
  for (std::int64_t s = 0; s < time; ++s) {
    for (std::int64_t i = 0; i < n; ++i) {
      const double* row =
          xv.row3(static_cast<int>(i), static_cast<int>(time - 1 - s));
      tape->x.insert(tape->x.end(), row, row + tape->input);
    }
  }

  std::vector<NodePtr> parents{x.node()};
  tape->layers.reserve(layers.size());
  Buffer proj = Zeros(rows * gw);   // [r | h | z] input projections
  Buffer a_rz = Zeros(2 * nh);      // [h ur | h uz] of one step
  Buffer a_h = Zeros(nh);           // (r * h) uh of one step
  Buffer zc = Zeros(nh);            // z * c of one step
  const double* input = tape->x.data();
  std::int64_t in = tape->input;
  for (const std::vector<Variable>& p : layers) {
    for (const Variable& v : p) parents.push_back(v.node());
    GruTape::Layer& layer = tape->layers.emplace_back();
    for (Buffer* b : {&layer.r, &layer.c, &layer.z, &layer.one_minus_z,
                      &layer.rh}) {
      *b = Zeros(rows * hid);
    }
    layer.h = Zeros(rows * hid + nh);
    const double* br = p[kBr].value().data().data();
    const double* bh = p[kBh].value().data().data();
    const double* bz = p[kBz].value().data().data();
    const double* uh = p[kUh].value().data().data();

    // The input projection, hoisted out of the time loop: one panel row
    // per (t, i) against [wr | wh | wz].
    const Buffer w =
        ConcatColumns({&p[kWr].value(), &p[kWh].value(), &p[kWz].value()});
    Zero(proj);
    ForEachRow(rows, PanelGrain(in, gw), [&](std::int64_t q) {
      kt.row_panel_matmul(input + q * in, 1, in, w.data(), gw,
                          proj.data() + q * gw, gw);
    });
    const Buffer u = ConcatColumns({&p[kUr].value(), &p[kUz].value()});
    for (std::int64_t t = 0; t < time; ++t) {
      const std::int64_t s = time - 1 - t;
      const double* hp = layer.h.data() + (s + 1) * nh;
      double* r = layer.r.data() + s * nh;
      double* c = layer.c.data() + s * nh;
      double* z = layer.z.data() + s * nh;
      double* omz = layer.one_minus_z.data() + s * nh;
      double* rh = layer.rh.data() + s * nh;
      double* h = layer.h.data() + s * nh;
      Zero(a_rz);
      ForEachRow(n, PanelGrain(hid, 2 * hid), [&](std::int64_t i) {
        kt.row_panel_matmul(hp + i * hid, 1, hid, u.data(), 2 * hid,
                            a_rz.data() + i * 2 * hid, 2 * hid);
      });
      for (std::int64_t i = 0; i < n; ++i) {
        const double* pq = proj.data() + (s * n + i) * gw;
        kt.ew_add3_sigmoid(pq + kGateR * hid, a_rz.data() + i * 2 * hid, br,
                           r + i * hid, hid);
        kt.ew_add3_sigmoid(pq + kGateZ * hid, a_rz.data() + i * 2 * hid + hid,
                           bz, z + i * hid, hid);
      }
      kt.ew_mul(r, hp, rh, nh);
      Zero(a_h);
      ForEachRow(n, PanelGrain(hid, hid), [&](std::int64_t i) {
        kt.row_panel_matmul(rh + i * hid, 1, hid, uh, hid,
                            a_h.data() + i * hid, hid);
      });
      for (std::int64_t i = 0; i < n; ++i) {
        kt.ew_add3_tanh(proj.data() + (s * n + i) * gw + kGateH * hid,
                        a_h.data() + i * hid, bh, c + i * hid, hid);
      }
      // h' = Add(Mul(OneMinus(z), h), Mul(z, c)).
      kt.ew_one_minus(z, omz, nh);
      kt.ew_mul(omz, hp, h, nh);
      kt.ew_mul(z, c, zc.data(), nh);
      kt.ew_add_acc(zc.data(), h, nh);
    }
    input = layer.h.data();
    in = hid;
  }

  Tensor out({static_cast<int>(n), static_cast<int>(time),
              static_cast<int>(hid)});
  const Buffer& top = tape->layers.back().h;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t t = 0; t < time; ++t) {
      const double* row = top.data() + ((time - 1 - t) * n + i) * hid;
      std::copy(row, row + hid,
                out.row3(static_cast<int>(i), static_cast<int>(t)));
    }
  }
  return Variable::FromOp(std::move(out), std::move(parents),
                          [tape](Node& self) { GruBackward(*tape, self); });
}

}  // namespace

Variable Gru::Forward(const Variable& x) const {
  TSAUG_CHECK(x.value().ndim() == 3 &&
              x.value().dim(2) == cells_.front()->input_size());
  std::vector<std::vector<Variable>> layers;
  layers.reserve(cells_.size());
  for (const auto& cell : cells_) layers.push_back(cell->Parameters());
  return GruSequence(x, layers);
}

std::vector<Module*> Gru::Children() {
  std::vector<Module*> children;
  for (const auto& cell : cells_) children.push_back(cell.get());
  return children;
}

TimeDistributed::TimeDistributed(int in_features, int out_features,
                                 core::Rng& rng)
    : linear_(in_features, out_features, rng) {}

Variable TimeDistributed::Forward(const Variable& x) const {
  TSAUG_CHECK(x.value().ndim() == 3 &&
              x.value().dim(2) == linear_.in_features());
  TSAUG_TRACE_SCOPE("nn.time_distributed");
  const auto& kt = core::kernels::Active();
  const std::vector<Variable> params = linear_.Parameters();  // {w, b}
  const Tensor& w = params[0].value();
  const Tensor& b = params[1].value();
  const int n = x.value().dim(0);
  const int time = x.value().dim(1);
  const std::int64_t in = x.value().dim(2);
  const std::int64_t out = w.dim(1);
  const std::int64_t rows = std::int64_t{n} * time;
  // Row (i, t) of x and y are contiguous [in] / [out] runs, so one panel
  // row per (i, t) is MatMul, then AddRowBias, of each step.
  Tensor y({n, time, static_cast<int>(out)});
  ForEachRow(rows, PanelGrain(in, out), [&](std::int64_t q) {
    double* yq = y.data().data() + q * out;
    kt.row_panel_matmul(x.value().data().data() + q * in, 1, in,
                        w.data().data(), out, yq, out);
    kt.ew_add_acc(b.data().data(), yq, out);
  });
  return Variable::FromOp(
      std::move(y), {x.node(), params[0].node(), params[1].node()},
      [n, time, in, out, rows](Node& self) {
        TSAUG_TRACE_SCOPE("nn.time_distributed.bwd");
        const auto& kb = core::kernels::Active();
        Node& px = *self.parents[0];
        Node& pw = *self.parents[1];
        Node& pb = *self.parents[2];
        const double* g = self.grad.data().data();
        // Bias and weight chains: t descending, i ascending within a step.
        // Index p owns row p of the weight gradient, as in MatMul's dB.
        for (std::int64_t t = time - 1; t >= 0; --t) {
          for (std::int64_t i = 0; i < n; ++i) {
            kb.ew_add_acc(g + (i * time + t) * out, pb.grad.data().data(),
                          out);
          }
        }
        ForEachRow(in, PanelGrain(rows, out), [&](std::int64_t p) {
          for (std::int64_t t = time - 1; t >= 0; --t) {
            kb.row_panel_matmul(px.value.data().data() + t * in + p,
                                time * in, n, g + t * out, time * out,
                                pw.grad.row2(static_cast<int>(p)), out);
          }
        });
        if (!px.requires_grad) return;
        // Each step's dA in SelectTime's zeroed gradient, then into x; row
        // q owns x's row q, and each chunk zeroes its own scratch.
        const Buffer w_t = StackTransposed({&pw.value});
        ForEachChunk(rows, PanelGrain(out, in),
                     [&](std::int64_t lo, std::int64_t hi) {
          Buffer dsel = Zeros(in);
          for (std::int64_t q = lo; q < hi; ++q) {
            Zero(dsel);
            kb.row_panel_matmul(g + q * out, 1, out, w_t.data(), in,
                                dsel.data(), in);
            kb.ew_add_acc(dsel.data(), px.grad.data().data() + q * in, in);
          }
        });
      });
}

}  // namespace tsaug::nn
