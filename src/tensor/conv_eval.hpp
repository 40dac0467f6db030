#pragma once
// Fused inference convolution path (eval-only, bit-identical by contract).
//
// The training conv (tensor/im2col.cpp) lowers every call to GEMM by
// materializing a full im2col matrix, multiplying, transposing the
// (spatial, filter) product back to NCHW, and then making three more full
// activation passes for bias, batch norm, and ReLU. That is the right shape
// for autograd (the columns are reused by backward) but it is pure overhead
// for serving, where weights are frozen and nobody asks for gradients.
//
// ConvEvalPlan is the serving-side lowering of one conv(+bias)(+BN)(+skip)
// (+ReLU) block:
//
//  * A-side (weights): the (F, C*K*K) weight matrix is packed ONCE, at plan
//    construction (ModelSnapshot publish time), into the exact MR-row strips
//    gemm_packed's micro-kernel consumes. Every micro-batch on every worker
//    reuses the same panels.
//  * B-side (activations): packed directly from the NCHW input into KC x NR
//    column strips in the per-lane scratch arena (Scratch::kConvPackB) — the
//    im2col gather happens inside the pack, so no (N*OH*OW, C*K*K) columns
//    tensor is ever materialized. Columns are pooled across the whole batch
//    (global column index j = image * OH*OW + spatial), so small feature maps
//    (deep VGG layers have OH*OW = 16) still fill complete NR=16 strips once
//    batch >= 2 — this is where micro-batching starts paying for conv.
//  * Epilogue: the C accumulator block (Scratch::kConvAccC) is scattered to
//    NCHW exactly once, applying bias, the folded frozen-stat batch norm,
//    an optional residual add, and optional ReLU per element in flight —
//    replacing the transpose pass plus three full tensor passes.
//
// Bit-identity contract: every output element is produced by the same
// compiled micro-kernel (tensor/gemm_packed.cpp, gemm_detail) extending the
// same ascending-p fma chain over the same operand values as the reference
// path, and the epilogue replays the reference per-element expressions
// (conv2d's `plane[s] += b`, batch_norm2d_apply's `(x - mu) * is` /
// `g * xh + b`, ag::add's `h + skip`, relu's `x > 0 ? x : 0`) in the same
// order. Logits and taps are therefore memcmp-identical to the layer-by-layer
// eval path at any batch size, lane count, and blocking (tests/
// test_conv_eval.cpp gates this).
//
// The path is eval-only: TapClassifier::lower() builds these plans into the
// InferencePlan a ModelSnapshot runs (models/plan.hpp); training, the attack
// loops and a model's own eval forward never see them.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace ibrar {

/// Frozen-stat batch norm folded for the fused epilogue. Kept as the four
/// per-channel constants batch_norm2d_apply actually uses — NOT a two-term
/// scale/shift, which would associate the arithmetic differently and round
/// differently. inv_std is precomputed with the identical expression
/// (1.0f / sqrt(var + eps)), so folding moves work without moving rounding.
struct FoldedBn {
  Tensor mean;     ///< (C) running mean
  Tensor inv_std;  ///< (C) 1 / sqrt(running_var + eps)
  Tensor gamma;    ///< (C)
  Tensor beta;     ///< (C)

  // A default Tensor is a rank-0 scalar (numel() == 1), so emptiness is a
  // rank check: folded stats are always rank-1 (one constant per channel).
  bool defined() const { return mean.rank() > 0; }
};

/// Fold running stats once. `gamma/beta/running_mean/running_var` are (C).
FoldedBn fold_batch_norm(const Tensor& gamma, const Tensor& beta,
                         const Tensor& running_mean, const Tensor& running_var,
                         float eps);

/// One-pass eval batch norm (+ optional ReLU) on x (N,C,H,W). Replays
/// batch_norm2d_apply's per-element expression on the folded constants, so
/// the result is bit-identical to batch_norm2d_eval (then relu) without the
/// xhat tensor, the autograd node, or the second activation pass. Backs the
/// InferencePlan's BN+ReLU step (pre-activation WideResNet blocks, where BN
/// runs before the conv).
Tensor batch_norm_relu_eval(const Tensor& x, const FoldedBn& bn, bool relu);

/// maxpool2d without the argmax vector (eval never routes gradients). Same
/// comparison chain as maxpool2d, so the values are bit-identical.
Tensor maxpool2d_eval(const Tensor& x, std::int64_t kernel,
                      std::int64_t stride);

/// Prepacked fused conv block: conv(+bias)(+BN)(+skip)(+ReLU).
///
/// Construction packs the weights and registers the panel bytes in the
/// process-global `serve.snapshot_bytes` gauge; destruction releases them
/// (so the gauge tracks live prepack memory across model hot-swaps). Plans
/// are neither copied nor moved: holders keep them by pointer.
class ConvEvalPlan {
 public:
  /// weight (F,C,K,K); bias (F) or nullptr; bn folded stats or a
  /// default-constructed FoldedBn for conv-only layers; relu applies after
  /// bias/BN/skip.
  ConvEvalPlan(const Tensor& weight, const Tensor* bias, const Conv2dSpec& spec,
               FoldedBn bn, bool relu);
  ~ConvEvalPlan();
  ConvEvalPlan(const ConvEvalPlan&) = delete;
  ConvEvalPlan& operator=(const ConvEvalPlan&) = delete;

  /// x (N,C,H,W) -> (N,F,OH,OW). `skip`, when given, must already have the
  /// output shape; it is added after BN and before ReLU (residual fusion:
  /// matches relu(add(h, skip)) / add(h, skip) of the layer-by-layer path).
  Tensor run(const Tensor& x, const Tensor* skip = nullptr) const;

  std::int64_t in_channels() const { return c_; }
  std::int64_t out_channels() const { return f_; }
  const Conv2dSpec& spec() const { return spec_; }
  bool has_relu() const { return relu_; }
  /// Bytes held by the packed weight panels (what the gauge accounts).
  std::size_t packed_bytes() const { return packed_.size() * sizeof(float); }

 private:
  void account(double sign) const;

  // Row blocking of the (F, CKK) weight matrix: one entry per MC block of
  // filters; `c_off` is the block's first row in the C accumulator scratch
  // (rows are MR-padded per block so the micro-kernel never needs the row
  // edge), `a_off[pb]` its packed panel offset for depth block pb.
  struct IcBlock {
    std::int64_t ic;    ///< first filter row
    std::int64_t mc;    ///< real rows in this block
    std::int64_t mcp;   ///< rows padded up to MR
    std::int64_t c_off; ///< row offset into the C scratch block
    std::vector<std::size_t> a_off;  ///< packed offset per KC depth block
  };

  std::int64_t f_ = 0;    ///< filters
  std::int64_t c_ = 0;    ///< input channels
  std::int64_t ckk_ = 0;  ///< reduction depth C*K*K
  Conv2dSpec spec_;
  std::vector<float> packed_;      ///< weight panels, MR-strip layout
  std::vector<IcBlock> blocks_;
  std::vector<std::int64_t> crow_of_f_;  ///< filter -> C scratch row
  std::int64_t c_rows_ = 0;              ///< total padded scratch rows
  Tensor bias_;  ///< (F) or empty
  FoldedBn bn_;
  bool relu_ = false;
};

}  // namespace ibrar
