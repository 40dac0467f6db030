#pragma once
// Neural-network module hierarchy (PyTorch-flavoured, value-semantic params).
//
// A Module owns parameter leaves (ag::Var with requires_grad) and child
// modules; parameters(), named_parameters() and named_buffers() walk the tree.
// Buffers are non-trainable state (batch-norm running stats) included in
// checkpoints but not in the optimizer.
//
// Each module writes its forward once, as run(x, mode), and every public
// forward is a thin entry into it: forward(x) passes the mode set_training()
// left the module in, forward(x, mode) the one given, eval_forward(x) always
// Mode::kEval. A composite hands its own mode to each child through
// child->forward(x, mode). Only the leaves with mode-dependent state
// (BatchNorm2d, Dropout, GaussianNoise) also override train_forward(), which
// is where kTrain reaches them; they see run() only in kEval.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/var.hpp"

namespace ibrar::nn {

/// kTrain: batch norm normalizes by the batch moments and updates its running
/// stats; dropout and noise draw from their generators. kEval: batch norm
/// reads the frozen running stats, dropout and noise are the identity, and
/// nothing is drawn or written.
enum class Mode { kTrain, kEval };

class Module {
 public:
  virtual ~Module() = default;

  /// Forward pass in the current mode (graph-building when grads are enabled).
  ag::Var forward(const ag::Var& x) {
    return forward(x, training_ ? Mode::kTrain : Mode::kEval);
  }

  /// Forward pass in `mode`, whatever the training flag says.
  ag::Var forward(const ag::Var& x, Mode mode) {
    return mode == Mode::kTrain ? train_forward(x) : run(x, Mode::kEval);
  }

  /// Strictly-const eval-mode forward: it never reads or flips the training
  /// flag, draws no random numbers and writes no buffer, and gives the same
  /// bits as forward() on a module in eval mode. This is the path concurrent
  /// serving workers share one immutable model through. Graph-building still
  /// follows the ambient grad mode, so attacks can differentiate through it.
  ag::Var eval_forward(const ag::Var& x) const { return run(x, Mode::kEval); }

  /// All trainable parameter leaves in the subtree (stable order).
  std::vector<ag::Var> parameters();

  /// (qualified name, parameter) pairs in the subtree.
  std::vector<std::pair<std::string, ag::Var>> named_parameters();

  /// (qualified name, buffer pointer) pairs — mutable non-trainable state.
  std::vector<std::pair<std::string, Tensor*>> named_buffers();

  /// Switch training/eval mode for the subtree (affects BN, dropout, noise).
  void set_training(bool training);
  bool training() const { return training_; }

  /// Zero every parameter gradient in the subtree.
  void zero_grad();

  /// Number of scalar parameters in the subtree.
  std::int64_t num_parameters();

 protected:
  /// The module's one forward body, for both modes. It writes no member of
  /// its own; in kTrain, the stateful leaves it reaches through
  /// child->forward(x, mode) update theirs.
  virtual ag::Var run(const ag::Var& x, Mode mode) const = 0;

  /// The training variant of a leaf with mode-dependent state. Every other
  /// module trains through its one body.
  virtual ag::Var train_forward(const ag::Var& x) {
    return run(x, Mode::kTrain);
  }

  void register_parameter(std::string name, ag::Var p);
  void register_buffer(std::string name, Tensor* buf);
  void register_module(std::string name, std::shared_ptr<Module> m);

  std::vector<std::pair<std::string, ag::Var>> params_;
  std::vector<std::pair<std::string, Tensor*>> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
  bool training_ = true;
};

using ModulePtr = std::shared_ptr<Module>;

/// Save all parameters and buffers of `m` to a checkpoint file.
void save_model(Module& m, const std::string& path);

/// Load a checkpoint produced by save_model into `m`. Every blob is checked
/// (present, same shape) before any is written, so a bad file leaves `m`
/// unchanged.
void load_model(Module& m, const std::string& path);

}  // namespace ibrar::nn
