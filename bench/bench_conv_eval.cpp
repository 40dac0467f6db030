// bench_conv_eval — fused inference conv A/B vs the layer-by-layer reference.
//
// Two sections, both gated on exact bit identity (memcmp of every output
// buffer — any mismatch exits nonzero, which is what the bench_conv_eval_smoke
// CTest target enforces):
//
//   * layers: every vgg16-shaped trunk conv plus a set of ragged shapes
//     (non-square input, stride-2, 1x1 stride-2 projection, kernel == input)
//     through ConvEvalPlan (prepacked weights, implicit-im2col B panels,
//     fused bias+BN+ReLU epilogue) and through the reference eval pipeline
//     relu(batch_norm2d_eval(ag::conv2d(x))), swept over batch sizes. Both
//     run the one conv driver, so each is memcmp'd against the independent
//     lowering of tests/conv_reference.hpp (materialized im2col, naive GEMM,
//     transpose, bias pass) followed by the same BN and ReLU. The fused path
//     is additionally re-run at 1 and 4 pool lanes and memcmp'd against
//     itself (the blocking/threading-invariance contract of gemm_packed's
//     ascending-p micro-kernel). The reference pipeline is the timed A side.
//   * models: each conv classifier (MiniVGG, MiniResNet, MiniWRN) lowered
//     to its InferencePlan (models/plan.hpp, what a ModelSnapshot runs) and
//     compared logit-for-logit AND tap-for-tap with the model's own
//     layer-by-layer eval forward across batch sizes under NoGradGuard.
//
// The layer rows double as the per-layer eval breakdown: each vgg16 trunk
// conv gets its own fused/reference timing pair (ns_per_op is per conv call,
// gflops from the analytic 2*N*OH*OW*F*C*K*K flop count). When profiling is
// on (IBRAR_OBS_PROFILE=1) the per-site pack/kernel/epilogue split prints at
// exit via obs::print_profile_table.
//
// JSON rows (ibrar-bench-v1, default BENCH_pr8_conv.json / IBRAR_BENCH_OUT):
//   kernel "conv_eval/ref/<layer>" | "conv_eval/fused/<layer>" |
//   "conv_eval/model/<name>/{ref,fused}", shape "b<N>_<C>x<H>x<W>->F<F>k<K>
//   s<S>", speedup_vs_naive on fused rows = ref_ms / fused_ms,
//   bit_identical = the memcmp gate result, extra batch=<N>.
//
// Perf expectation (checked in full mode, WARN only — the hard gates are the
// bit gates): fused beats the reference on every vgg16-shaped layer at
// batch >= 4.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/var.hpp"
#include "common.hpp"
#include "models/plan.hpp"
#include "models/registry.hpp"
#include "obs/profile.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/conv_eval.hpp"
#include "tensor/random.hpp"

#include "../tests/conv_reference.hpp"

using namespace ibrar;
using namespace ibrar::bench;

namespace {

struct LayerCase {
  const char* name;
  std::int64_t c, h, w, f;
  Conv2dSpec spec;
  bool bias;
  bool vgg_shaped;  ///< participates in the batch>=4 perf expectation
};

/// One conv layer's worth of random-but-deterministic operands. running_var
/// is shifted positive so the BN fold's rsqrt stays well-conditioned.
struct LayerOperands {
  Tensor w, bias, gamma, beta, rm, rv;
};

LayerOperands make_operands(const LayerCase& lc, std::uint64_t salt) {
  Rng rng(0x51ed270bu ^ salt);
  LayerOperands ops;
  ops.w = randn({lc.f, lc.c, lc.spec.kernel, lc.spec.kernel}, rng);
  ops.bias = randn({lc.f}, rng);
  ops.gamma = randn({lc.f}, rng);
  ops.beta = randn({lc.f}, rng);
  ops.rm = randn({lc.f}, rng);
  ops.rv = randn({lc.f}, rng);
  for (std::int64_t i = 0; i < lc.f; ++i) {
    ops.rv[i] = ops.rv[i] * ops.rv[i] + 0.5f;
  }
  return ops;
}

constexpr float kEps = 1e-5f;

/// BN (eval) then ReLU over a conv output, as the layer-by-layer path runs it.
Tensor bn_relu(const ag::Var& h, const LayerOperands& ops) {
  return ag::relu(ag::batch_norm2d_eval(h, ag::Var::constant(ops.gamma),
                                        ag::Var::constant(ops.beta), ops.rm,
                                        ops.rv, kEps))
      .value();
}

/// The layer-by-layer eval pipeline: the timed A side.
Tensor reference_layer(const Tensor& x, const LayerCase& lc,
                       const LayerOperands& ops) {
  ag::NoGradGuard ng;
  return bn_relu(ag::conv2d(ag::Var::constant(x), ag::Var::constant(ops.w),
                            lc.bias ? ag::Var::constant(ops.bias) : ag::Var(),
                            lc.spec),
                 ops);
}

/// The bit gate's ground truth: the conv through the independent lowering,
/// then the same BN and ReLU.
Tensor independent_layer(const Tensor& x, const LayerCase& lc,
                         const LayerOperands& ops) {
  ag::NoGradGuard ng;
  return bn_relu(ag::Var::constant(reference_conv2d(
                     x, ops.w, lc.bias ? &ops.bias : nullptr, lc.spec)),
                 ops);
}

double conv_gflops(const LayerCase& lc, std::int64_t n, double ms) {
  const std::int64_t oh =
      (lc.h + 2 * lc.spec.pad - lc.spec.kernel) / lc.spec.stride + 1;
  const std::int64_t ow =
      (lc.w + 2 * lc.spec.pad - lc.spec.kernel) / lc.spec.stride + 1;
  const double flops = 2.0 * static_cast<double>(n * oh * ow) *
                       static_cast<double>(lc.f) *
                       static_cast<double>(lc.c * lc.spec.kernel *
                                           lc.spec.kernel);
  return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
}

std::string layer_shape(const LayerCase& lc, std::int64_t n) {
  return "b" + std::to_string(n) + "_" + std::to_string(lc.c) + "x" +
         std::to_string(lc.h) + "x" + std::to_string(lc.w) + "->F" +
         std::to_string(lc.f) + "k" + std::to_string(lc.spec.kernel) + "s" +
         std::to_string(lc.spec.stride);
}

/// All taps plus logits memcmp-equal between two TapsOutputs.
bool taps_bits_equal(const models::TapsOutput& a, const models::TapsOutput& b) {
  if (a.taps.size() != b.taps.size()) return false;
  if (!tensor_bits_equal(a.logits.value(), b.logits.value())) return false;
  for (std::size_t i = 0; i < a.taps.size(); ++i) {
    if (!tensor_bits_equal(a.taps[i].value(), b.taps[i].value())) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  print_header(smoke ? "bench_conv_eval --smoke: bit-identity gates, tiny load"
                     : "bench_conv_eval: fused inference conv A/B");
  JsonReporter reporter(env::get_string(
      "IBRAR_BENCH_OUT",
      smoke ? "BENCH_smoke_conv_eval.json" : "BENCH_pr8_conv.json"));

  // The vgg16 trunk at image 16 (channels 8/12/16/24/24, pools after blocks
  // 1-3), then the ragged shapes the blocked packing has to get right: spatial
  // rows that do not divide NR, stride-2 downsampling, a 1x1 stride-2
  // projection (resnet/wrn skip path, no bias), and kernel == input (the
  // degenerate single-column case).
  const std::vector<LayerCase> layers = {
      {"vgg.b1c0", 3, 16, 16, 8, {3, 1, 1}, true, true},
      {"vgg.b1c1", 8, 16, 16, 8, {3, 1, 1}, true, true},
      {"vgg.b2c0", 8, 8, 8, 12, {3, 1, 1}, true, true},
      {"vgg.b2c1", 12, 8, 8, 12, {3, 1, 1}, true, true},
      {"vgg.b3c0", 12, 4, 4, 16, {3, 1, 1}, true, true},
      {"vgg.b3c1", 16, 4, 4, 16, {3, 1, 1}, true, true},
      {"vgg.b4c0", 16, 2, 2, 24, {3, 1, 1}, true, true},
      {"vgg.b5c0", 24, 2, 2, 24, {3, 1, 1}, true, true},
      {"nonsquare", 8, 6, 10, 16, {3, 1, 1}, true, false},
      {"stride2", 8, 16, 16, 16, {3, 2, 1}, true, false},
      {"proj1x1s2", 16, 8, 8, 32, {1, 2, 0}, false, false},
      {"kfull", 8, 4, 4, 16, {4, 1, 0}, false, false},
  };
  const std::vector<std::int64_t> batches =
      smoke ? std::vector<std::int64_t>{1, 4, 8}
            : std::vector<std::int64_t>{1, 2, 4, 8, 16, 32};
  const int reps = smoke ? 1 : 5;
  const std::int64_t lanes0 = runtime::num_threads();

  int failures = 0;
  int perf_warnings = 0;

  std::printf("  %-10s %5s : %10s %10s %8s %8s  %s\n", "layer", "batch",
              "ref ms", "fused ms", "speedup", "GF/s", "bits");
  for (const auto& lc : layers) {
    const LayerOperands ops = make_operands(lc, static_cast<std::uint64_t>(
                                                    lc.c * 131 + lc.f));
    const ConvEvalPlan plan(ops.w, lc.bias ? &ops.bias : nullptr, lc.spec,
                            fold_batch_norm(ops.gamma, ops.beta, ops.rm,
                                            ops.rv, kEps),
                            /*relu=*/true);
    for (const auto n : batches) {
      Rng xrng(0xabcdef01u ^ static_cast<std::uint64_t>(n));
      const Tensor x = randn({n, lc.c, lc.h, lc.w}, xrng);
      const Tensor truth = independent_layer(x, lc, ops);
      const Tensor ref = reference_layer(x, lc, ops);
      const Tensor fused = plan.run(x);
      const bool ref_bits = tensor_bits_equal(truth, ref);
      bool fused_bits = tensor_bits_equal(truth, fused);

      // Lane-count invariance: the same call at 1 and 4 pool lanes must
      // reproduce the same bytes (the micro-kernel's ascending-p contract).
      runtime::set_num_threads(1);
      const Tensor fused1 = plan.run(x);
      runtime::set_num_threads(4);
      const Tensor fused4 = plan.run(x);
      runtime::set_num_threads(lanes0);
      fused_bits = fused_bits && tensor_bits_equal(fused, fused1) &&
                   tensor_bits_equal(fused, fused4);
      const bool bits = ref_bits && fused_bits;

      const double ref_ms = time_best_ms([&] { reference_layer(x, lc, ops); },
                                         reps);
      const double fused_ms = time_best_ms([&] { plan.run(x); }, reps);
      const double speedup = fused_ms > 0.0 ? ref_ms / fused_ms : 0.0;
      const double gf = conv_gflops(lc, n, fused_ms);
      std::printf("  %-10s %5lld : %10.4f %10.4f %7.2fx %8.3f  %s\n", lc.name,
                  static_cast<long long>(n), ref_ms, fused_ms, speedup, gf,
                  bits ? "OK" : "MISMATCH");
      if (!bits) {
        std::fprintf(stderr,
                     "FAIL: %s batch=%lld bits differ from the independent "
                     "lowering\n",
                     lc.name, static_cast<long long>(n));
        ++failures;
      }
      if (!smoke && lc.vgg_shaped && n >= 4 && fused_ms > ref_ms) {
        std::fprintf(stderr,
                     "WARN: %s batch=%lld fused %.4f ms slower than ref "
                     "%.4f ms\n",
                     lc.name, static_cast<long long>(n), fused_ms, ref_ms);
        ++perf_warnings;
      }

      const std::string shape = layer_shape(lc, n);
      BenchRecord rr;
      rr.kernel = std::string("conv_eval/ref/") + lc.name;
      rr.shape = shape;
      rr.ns_per_op = ref_ms * 1e6;
      rr.gflops = conv_gflops(lc, n, ref_ms);
      rr.threads = lanes0;
      rr.checksum = tensor_checksum(ref);
      rr.bit_identical = ref_bits;
      rr.extra = {{"batch", static_cast<double>(n)}};
      reporter.add(rr);
      BenchRecord fr = rr;
      fr.kernel = std::string("conv_eval/fused/") + lc.name;
      fr.ns_per_op = fused_ms * 1e6;
      fr.gflops = gf;
      fr.checksum = tensor_checksum(fused);
      fr.speedup_vs_naive = speedup;
      fr.bit_identical = fused_bits;
      reporter.add(fr);
    }
  }

  // ---- full-model plan-vs-reference (logits AND taps) ----------------------
  // One model, two execution paths: its lowered plan and its layer-by-layer
  // eval forward.
  const std::vector<std::string> model_names =
      smoke ? std::vector<std::string>{"vgg16"}
            : std::vector<std::string>{"vgg16", "resnet18", "wrn28"};
  const std::vector<std::int64_t> model_batches =
      smoke ? std::vector<std::int64_t>{1, 8}
            : std::vector<std::int64_t>{1, 4, 8, 32};
  for (const auto& name : model_names) {
    models::ModelSpec spec;
    spec.name = name;
    Rng rng(97);
    auto model = models::make_model(spec, rng);
    model->set_training(false);
    const models::InferencePlan plan = model->lower();
    if (plan.empty()) {
      std::fprintf(stderr, "FAIL: %s lowered to an empty plan\n",
                   name.c_str());
      ++failures;
      continue;
    }
    ag::NoGradGuard ng;
    for (const auto n : model_batches) {
      Rng xrng(0x7f4a7c15u ^ static_cast<std::uint64_t>(n));
      const Tensor x = randn({n, spec.in_channels, spec.image_size,
                              spec.image_size}, xrng);
      const ag::Var xv = ag::Var::constant(x);
      const auto ref = model->eval_forward_with_taps(xv);
      const auto fused = plan.run(x);
      const bool bits = taps_bits_equal(ref, fused);
      const double ref_ms =
          time_best_ms([&] { model->eval_forward_with_taps(xv); }, reps);
      const double fused_ms = time_best_ms([&] { plan.run(x); }, reps);
      const double speedup = fused_ms > 0.0 ? ref_ms / fused_ms : 0.0;
      std::printf("  model %-8s batch %2lld : ref %8.3f ms  fused %8.3f ms  "
                  "speedup %5.2fx  logits+taps %s\n",
                  name.c_str(), static_cast<long long>(n), ref_ms, fused_ms,
                  speedup, bits ? "OK" : "MISMATCH");
      if (!bits) {
        std::fprintf(stderr,
                     "FAIL: %s batch=%lld fused logits/taps differ from "
                     "layer-by-layer\n",
                     name.c_str(), static_cast<long long>(n));
        ++failures;
      }
      const std::string shape = "b" + std::to_string(n) + "_" + name;
      BenchRecord rr;
      rr.kernel = "conv_eval/model/" + name + "/ref";
      rr.shape = shape;
      rr.ns_per_op = ref_ms * 1e6 / static_cast<double>(n);
      rr.threads = lanes0;
      rr.checksum = tensor_checksum(ref.logits.value());
      rr.bit_identical = true;
      rr.extra = {{"batch", static_cast<double>(n)}};
      reporter.add(rr);
      BenchRecord fr = rr;
      fr.kernel = "conv_eval/model/" + name + "/fused";
      fr.ns_per_op = fused_ms * 1e6 / static_cast<double>(n);
      fr.checksum = tensor_checksum(fused.logits.value());
      fr.speedup_vs_naive = speedup;
      fr.bit_identical = bits;
      reporter.add(fr);
    }
  }

  reporter.write();
  if (obs::profiling_enabled()) obs::print_profile_table(stdout);
  if (perf_warnings != 0) {
    std::fprintf(stderr,
                 "WARN: fused path slower than reference on %d vgg-shaped "
                 "layer/batch points (expected 0 at batch >= 4)\n",
                 perf_warnings);
  }
  if (failures != 0) {
    std::fprintf(stderr, "bench_conv_eval: %d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("bench_conv_eval: all bit-identity gates passed\n");
  return 0;
}
