#pragma once
// The one conv driver: implicit-im2col GEMM with a fused NCHW epilogue, and
// the conv backward on the same task, pack and kernel loop.
//
// Every conv in the library runs the driver in conv_eval.cpp: ibrar::conv2d
// (tensor/conv.hpp), which is the forward of training, of every attack
// step and of a model's layer-by-layer eval, and ConvEvalPlan, which a
// snapshot's InferencePlan runs. The driver computes out = W * cols(x)
// without ever materializing cols:
//
//  * A-side (weights): the (F, C*K*K) weight matrix packed into the
//    kConvMR-row strips gemm_packed's micro-kernel consumes (8 rows with
//    AVX-512, so that the 8 x 16 tile runs eight FMA chains; 4 elsewhere,
//    tensor/gemm_packed.hpp), one KC-deep panel per depth block. conv2d
//    packs them per call into the caller's scratch arena
//    (Scratch::kConvPackA); ConvEvalPlan packs them once, at construction
//    (ModelSnapshot publish time), and every micro-batch on every worker
//    reuses them. Only the plan's panels count in serve.snapshot_bytes.
//  * B-side (activations): x is copied once per call into a channel-major
//    zero-padded grid in the caller's arena (Scratch::kConvPadX). Each
//    channel is one flat run: per image, max(H + pad, OH) rows of
//    max(W + pad, OW) floats, neighbouring rows, images and channels sharing
//    their pad zeros, so every tap of every output position lies inside it
//    with no bound to check. Each image's plane is zeroed in one pass and
//    its pixel rows copied in an inline loop (planes of at most 16 pixels
//    through a table of grid offsets), with no libc call per row. Columns
//    are pooled across the whole batch, so small feature maps (deep VGG
//    layers have OH*OW = 4) still fill complete NR=16 strips once the batch
//    is large enough. B is then read one of two ways:
//     - In place, for a stride-1 conv whose grid is at most 2x its output
//       (vgg16's 16x16, 8x8 and 4x4 maps): the GEMM runs over every
//       position of the grid (column j = image * rows * width +
//       y * width + x), and the micro-kernel reads the B row of tap
//       (ic, ky, kx) at column j as the 16 floats at off[tap] + j, off
//       being a per-call offset table (Scratch::kConvTaps): no pack. This
//       is the indirect convolution of Dukhan et al. (arXiv:1907.02129),
//       except that the padded layout lets one offset per tap serve every
//       column where their indirection buffer holds a pointer per output
//       and tap.
//     - Packed, for stride-2 convs and maps whose grid would be more than
//       2x their output (vgg16's 2x2 maps, whose halo columns would cost
//       more kernel time than the pack saves): KC x NR column strips in the
//       per-lane scratch arena (Scratch::kConvPackB), copied from the grid
//       through the taps' offsets and a table of the real output positions
//       (column j = image * OH*OW + spatial).
//  * Epilogue: the C accumulator block (Scratch::kConvAccC) is scattered to
//    NCHW exactly once, filter by filter with the filter's constants in
//    registers, one grid row run at a time, skipping the in-place grid's
//    halo and adding the bias in flight. ConvEvalPlan adds the folded
//    frozen-stat batch norm, an optional residual add and an optional ReLU
//    to the same scatter. The scatter is compiled once per set of these
//    flags (bias, BN, skip, ReLU), so no element tests one, and it steps
//    from one grid row run to the next without a division; it runs under
//    the tensor/conv_eval/epilogue profile site, which sums lane time.
//
// The file also holds the one batch-norm kernel, batch_norm_relu, whose
// element function the epilogue shares. Autograd's forward and the plan's
// BN+ReLU step run it; the plan's pool step runs maxpool2d (tensor/conv.hpp).
//
// ag::conv2d's backward runs three kernels on the same micro-kernel
// (declared in tensor/conv.hpp), given g = dL/dout (N,F,OH,OW):
//
//  * Input gradient: C (C*K*K, columns) = W^T * g. W^T is packed once per
//    call as the shared A panels. Where OH*OW is a multiple of NR (vgg16's
//    16x16, 8x8 and 4x4 maps) every NR-column strip lies in one plane of g,
//    and the micro-kernel reads B's rows there in place through a per-call
//    offset table (Scratch::kConvTaps, off[p] = p * OH*OW); other maps copy
//    B strips from g's planes (Scratch::kConvPackB). The GEMM is only F
//    deep; with AVX-512 and F <= 16 (vgg16's F = 8, 12 and 16) one
//    short-depth kernel call per NR-column strip loads the strip's F rows
//    of g into registers and runs every 8-row strip of W^T against them,
//    where the generic loop would make one call of F steps per strip, each
//    reloading B and storing its tile. A task owns whole
//    images, so no two lanes write one input element: a block pools up to
//    NC columns of whole images, at most an even share of the batch per
//    lane, and an image wider than NC columns is one task of consecutive
//    chunks. The C block's rows are the input taps (ic, ky, kx); each input
//    element sums its contributors with (ky, kx) descending, that is in
//    ascending (oy, ox) order:
//     - A stride-1 conv whose output is its input's size (every vgg16 conv,
//       and the other models' 3x3 and 5x5 "same" convs) with whole images
//       per block gathers: a vector of input positions of one plane starts
//       from +0 in a register, takes tap (ky, kx) from its C row shifted by
//       (pad - ky) * W + (pad - kx) where a per-call gather mask
//       (Scratch::kConvTapMask) says that tap's output position is inside
//       the image, and is written to dL/dx once.
//     - Strided, non-"same" and chunked convs scatter the block into a
//       zeroed dL/dx, one output row run per (tap, channel, row).
//    The B pack, the kernel and the gather or scatter each have a profile
//    site (tensor/conv2d_input_grad/pack_b, /kernel and /scatter); a map
//    read in place records no pack.
//  * Weight gradient: C^T (C*K*K, F) = cols(x)^T * g^T, reduced over
//    p = (image, oy, ox) in ascending order. Its A rows, the taps, are read
//    in place from x's padded grid, built as the forward builds it: tap row
//    (ic, ky, kx) at depth p is the float at off[tap] + pos[p], pos being a
//    per-call table of the real output positions' grid offsets
//    (Scratch::kConvTaps), so no halo term enters a chain. g^T is copied
//    once per call as a (depth, F) row-major matrix (Scratch::kConvPackA)
//    whose rows every task reads in place, 16 floats at a time (an F below
//    16 reads into the next row, and those C columns are dropped). Tasks
//    split the taps, kConvMR rows at a time, and each walks the depth in KC
//    blocks over all its rows, so one stretch of g^T serves them all. This
//    is the in-place weight update of Georganas et al. (arXiv:1808.05567)
//    on the indirect convolution's offsets.
//  * Bias gradient: each channel's planes of g summed in (image, spatial)
//    order, no GEMM; the channels' chains run side by side in the lanes of
//    a vector (tensor/simd.hpp), each lane exactly its channel's chain.
//
// No (N*OH*OW, C*K*K) column matrix exists anywhere;
// tests/conv_reference.hpp keeps the materialized lowering as the reference
// the gates compare with.
//
// Bit-identity contract: every output element is the same ascending-p fma
// chain over the same operand values as im2col -> GEMM (columns as A, the
// transposed weight as B) -> NCHW transpose -> bias pass, extended by the
// compiled kernel bodies of tensor/gemm_packed.cpp (gemm_detail: the
// micro-kernel, whose instantiations differ only in where an A value or a B
// row is loaded from, and the short-depth kernel, which starts each chain
// from +0 and takes the same `acc += a * b` steps in the same order). A
// tap that falls in the padding reads the 0.0f of the padded copy, the
// value im2col holds there; the in-place forward's halo columns' chains
// are computed and dropped. The epilogue replays the reference
// per-element expressions (`v += bias`, batch norm's `(x - mu) * is` /
// `g * xh + b`, ag::add's `h + skip`, relu's `x > 0 ? x : 0`) in the same
// order. Outputs are
// therefore memcmp-identical to that lowering, and a snapshot's logits and
// taps to the layer-by-layer eval, at any batch size, lane count and
// blocking (tests/test_conv_eval.cpp gates both). One freedom remains: where
// a chain adds two NaNs of different sign (an input's quiet NaN and the
// default NaN of inf - inf or 0 * inf), the NaN that survives follows the
// operand order the compiler picks for the add, so only that NaN's sign
// may differ between builds. The gradients hold the
// same contract against the materialized backward — gprod * W then a
// row-major col2im, gprod^T * im2col(x), and sum_axis(gprod, 0) — because
// IEEE products commute (so the weight gradient's transposed product keeps
// every term) and every chain, gather and scatter keeps the reference's
// order. Whether B is packed or read from g, each C element is the same
// chain; the gather keeps an input element's sum as it is where a tap's
// output position is off the image, rather than adding +0 to it, so each
// input element takes exactly col2im's adds, and signed zeros, infinities
// and NaNs come out as there
// (tests/test_autograd.cpp gates all three at 1, 3 and 4 lanes, on
// ordinary values and on IEEE specials).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/conv.hpp"
#include "tensor/tensor.hpp"

namespace ibrar {

/// Batch norm folded to the four per-channel constants its element
/// expression reads — NOT a two-term scale/shift, which would associate the
/// arithmetic differently and round differently. ag::batch_norm2d folds the
/// batch moments (training) or the running stats (eval) per call; the
/// InferencePlan folds the running stats once, at publish.
struct FoldedBn {
  Tensor mean;     ///< (C)
  Tensor inv_std;  ///< (C) 1 / sqrt(var + eps)
  Tensor gamma;    ///< (C)
  Tensor beta;     ///< (C)

  // A default Tensor is a rank-0 scalar (numel() == 1), so emptiness is a
  // rank check: folded stats are always rank-1 (one constant per channel).
  bool defined() const { return mean.rank() > 0; }
};

/// Fold per-channel moments: `gamma/beta/running_mean/running_var` are (C),
/// and inv_std = 1.0f / sqrt(running_var + eps) is computed here and
/// nowhere else. Throws std::invalid_argument when the four disagree on C.
FoldedBn fold_batch_norm(const Tensor& gamma, const Tensor& beta,
                         const Tensor& running_mean, const Tensor& running_var,
                         float eps);

/// The one batch-norm kernel: x (N,C,H,W) -> g * ((x - mu) * is) + b on the
/// folded constants, then ReLU when `relu`, in one pass over (image,
/// channel) planes split across the pool; on planes shorter than a SIMD
/// register, over each image's C*H*W elements instead, with the constants
/// expanded over a plane once per call, so that the pass vectorizes. ag::batch_norm2d runs it with its
/// own relu flag (true at every BN that feeds a ReLU); the InferencePlan's
/// BN+ReLU step (pre-activation WideResNet blocks) with relu = true. Throws
/// std::invalid_argument unless x is NCHW with bn's channel count.
Tensor batch_norm_relu(const Tensor& x, const FoldedBn& bn, bool relu);

/// Prepacked conv block: conv(+bias)(+BN)(+skip)(+ReLU) on the one driver.
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
  /// Bytes held by the packed weight panels (what the gauge accounts).
  std::size_t packed_bytes() const { return packed_.size() * sizeof(float); }

 private:
  void account(double sign) const;

  std::int64_t f_ = 0;  ///< filters
  std::int64_t c_ = 0;  ///< input channels
  Conv2dSpec spec_;
  std::vector<float> packed_;  ///< weight panels (conv_eval.cpp's layout)
  Tensor bias_;  ///< (F) or empty
  FoldedBn bn_;
  bool relu_ = false;
};

}  // namespace ibrar
