#pragma once
// Tape-free dynamic reverse-mode automatic differentiation.
//
// A Var is a shared handle to a graph Node holding a value, an (accumulated)
// gradient, and a backward closure referencing its parent nodes. Graphs are
// rebuilt every forward pass; parameter leaves persist across passes so their
// gradients accumulate until the optimizer clears them — the same contract as
// PyTorch, which keeps the training-loop code in src/train idiomatic.
//
// Ownership contract (what a backward closure may read):
//  * Closures read their parents' values as n.parents[i]->value and their own
//    output as n.value; they keep no private copy of either, and nothing
//    they can recompute from them. What only the backward needs and cannot
//    recompute (the dropout mask, log_softmax's probabilities) is moved into
//    the closure, never copied.
//  * A node's value must not be mutated between the forward that used it and
//    its backward. The four mutable_value() writers all run outside that
//    window: the optimizer step (after backward), Module load/copy (between
//    graphs), gradcheck (perturbs its inputs only after the analytic
//    backward, then runs forwards without backward), and CW's Adam step on
//    its w (after the step's backward; the next step builds a new graph).
//  * Closures hand the gradients they build to Node::accumulate as rvalues:
//    a first contribution is adopted (rewritten in place as 0 + g), not
//    copied into a zero-filled tensor and added. The three producers whose
//    every element already is 0 + itself, conv2d's input gradient, max
//    pooling's and batch norm's, hand theirs to Node::accumulate_as_is,
//    which adopts it without that pass.
//  * conv2d keeps nothing: no pass builds im2col columns. Its backward
//    reads n.parents[0]->value and n.parents[1]->value in place; the
//    weight-gradient kernel gathers the input's taps straight from
//    n.parents[0]->value into per-lane scratch strips.
//  * maxpool2d keeps only (kernel, stride): its backward finds each
//    window's winner again in n.parents[0]->value. Batch norm keeps only
//    the per-channel mean and inv_std: its backward recomputes
//    xh = (x - mu) * is from n.parents[0]->value with the forward's
//    expression, and with a ReLU fused in reads the mask from n.value
//    (the node's output is > 0 exactly where the pre-activation is).
//    Neither depends on which parents required grad at the forward, so a
//    parameter un-paused before backward gets its gradient.
//
// Gradient lifetime (what backward() keeps):
//  * An op node's gradient (a node with a backward_fn) lives until its
//    closure has run, and backward() then releases it: in reverse
//    topological order every consumer has already added into it, and the
//    closure has passed on everything it derives from it. Its grad() reads
//    zeros afterwards, as before any backward. So a backward holds one
//    frontier of gradients rather than every gradient of the graph, and a
//    second backward through a node that an earlier one visited starts
//    there from zero instead of adding the earlier pass's gradient again.
//  * Leaves (parameters and attack inputs, the nodes without a closure)
//    keep and accumulate theirs across backward passes until zero_grad().
//  * Values and closures stay as long as the graph. Callers read values
//    after backward (the attack engine reads the logits after l.backward(),
//    FAB its margin), and a second backward through the same graph runs
//    the closures again.

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace ibrar::ag {

struct Node;
using NodePtr = std::shared_ptr<Node>;

/// One vertex of the dynamically-built computation graph.
struct Node {
  Tensor value;
  Tensor grad;                 ///< valid iff grad_ready
  bool grad_ready = false;     ///< grad tensor allocated & shaped
  bool requires_grad = false;  ///< participates in backward
  std::vector<NodePtr> parents;
  /// Accumulates into parents' grads given this node's grad. Null for leaves.
  std::function<void(Node&)> backward_fn;

  /// Add `g` (shaped like `value`; else std::logic_error) into `grad`. The
  /// first contribution leaves grad = 0.0f + g, so a -0 in it becomes +0;
  /// later ones add. The rvalue overload adopts a first contribution's
  /// buffer and rewrites it in place, so a backward closure hands over the
  /// temporaries it builds instead of having them copied.
  void accumulate(const Tensor& g);
  void accumulate(Tensor&& g);
  /// accumulate(Tensor&&) for a `g` whose every element already equals
  /// 0.0f + itself bit for bit: a first contribution is adopted as is,
  /// without the rewrite pass. Precondition: no element of `g` is -0 (which
  /// 0 + g turns into +0) or a signalling NaN (which it quiets). A sum
  /// started from +0 meets it, and so does 0 + v written by the producer
  /// itself, unless the compiler contracts that add into an FMA with the
  /// product that makes v (which leaves -0 where the product underflows).
  void accumulate_as_is(Tensor&& g);
};

/// Value + gradient handle. Cheap to copy (shared_ptr semantics).
class Var {
 public:
  /// Undefined Var (use defined() to test).
  Var() = default;

  /// Leaf holding `value`; set requires_grad for trainable/attacked leaves.
  explicit Var(Tensor value, bool requires_grad = false);

  /// Leaf that is differentiated (parameters, attack inputs).
  static Var param(Tensor value) { return Var(std::move(value), true); }

  /// Leaf treated as a constant.
  static Var constant(Tensor value) { return Var(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Shape& shape() const { return node_->value.shape(); }
  std::int64_t numel() const { return node_->value.numel(); }
  bool requires_grad() const { return node_ != nullptr && node_->requires_grad; }

  /// Gradient accumulated by backward(); zeros of the value's shape if unset.
  const Tensor& grad() const;

  /// Reset this leaf's gradient accumulator.
  void zero_grad();

  /// Run reverse-mode AD from this (scalar) Var; accumulates into every
  /// requires_grad leaf reachable through the graph, and releases each op
  /// node's gradient once its closure has run (see "Gradient lifetime").
  void backward();

  NodePtr node() const { return node_; }
  explicit Var(NodePtr node) : node_(std::move(node)) {}

 private:
  NodePtr node_;
};

/// True while gradient recording is disabled (evaluation / attacks' inner
/// forward passes that do not need parameter grads).
bool grad_enabled();

/// RAII guard that disables graph construction in its scope.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// Build an op node: value, parents, and a backward closure. When recording is
/// off or no parent requires grad, the result is a detached constant.
Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(Node&)> backward_fn);

/// Detached copy of `v` (constant leaf sharing the value).
Var detach(const Var& v);

}  // namespace ibrar::ag
