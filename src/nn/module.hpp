#pragma once
// Neural-network module hierarchy (PyTorch-flavoured, value-semantic params).
//
// A Module owns parameter leaves (ag::Var with requires_grad) and child
// modules; parameters(), named_parameters() and named_buffers() walk the tree.
// Buffers are non-trainable state (batch-norm running stats) included in
// checkpoints but not in the optimizer.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/var.hpp"

namespace ibrar::nn {

class Module {
 public:
  virtual ~Module() = default;

  /// Forward pass (graph-building when grads are enabled).
  virtual ag::Var forward(const ag::Var& x) = 0;

  /// Strictly-const eval-semantics forward: batch norm reads frozen running
  /// stats, dropout is identity, no RNG draws, no buffer writes — regardless
  /// of the training/eval flag, which it never reads or flips. Bit-identical
  /// to forward() on a module in eval mode. This is the path concurrent
  /// serving workers share one immutable model through; every concrete layer
  /// overrides it. Graph-building still follows the ambient grad mode, so
  /// attacks can differentiate through it.
  virtual ag::Var eval_forward(const ag::Var& x) const {
    (void)x;
    throw std::logic_error(
        "Module::eval_forward: this module has no const eval path");
  }

  ag::Var operator()(const ag::Var& x) { return forward(x); }

  /// All trainable parameter leaves in the subtree (stable order).
  std::vector<ag::Var> parameters();

  /// (qualified name, parameter) pairs in the subtree.
  std::vector<std::pair<std::string, ag::Var>> named_parameters();

  /// (qualified name, buffer pointer) pairs — mutable non-trainable state.
  std::vector<std::pair<std::string, Tensor*>> named_buffers();

  /// Switch training/eval mode for the subtree (affects BN, dropout).
  void set_training(bool training);
  bool training() const { return training_; }

  /// Zero every parameter gradient in the subtree.
  void zero_grad();

  /// Number of scalar parameters in the subtree.
  std::int64_t num_parameters();

 protected:
  void register_parameter(std::string name, ag::Var p);
  void register_buffer(std::string name, Tensor* buf);
  void register_module(std::string name, std::shared_ptr<Module> m);

  /// Hook for modules that cache mode-dependent state.
  virtual void on_mode_change() {}

  std::vector<std::pair<std::string, ag::Var>> params_;
  std::vector<std::pair<std::string, Tensor*>> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
  bool training_ = true;
};

using ModulePtr = std::shared_ptr<Module>;

/// Save all parameters and buffers of `m` to a checkpoint file.
void save_model(Module& m, const std::string& path);

/// Load a checkpoint produced by save_model into `m` (shapes must match).
void load_model(Module& m, const std::string& path);

}  // namespace ibrar::nn
