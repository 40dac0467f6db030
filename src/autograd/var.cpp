#include "autograd/var.hpp"

#include <stdexcept>
#include <unordered_set>

#include "runtime/parallel_for.hpp"

namespace ibrar::ag {
namespace {

bool& grad_flag() {
  thread_local bool enabled = true;
  return enabled;
}

void check_grad_shape(const Tensor& g, const Shape& want) {
  if (g.shape() != want) {
    throw std::logic_error("grad shape mismatch: " + shape_str(g.shape()) +
                           " vs " + shape_str(want));
  }
}

/// True when make_op records a node over `parents`: recording is on and at
/// least one parent requires grad.
bool will_record(const std::vector<Var>& parents) {
  if (!grad_enabled()) return false;
  for (const auto& p : parents) {
    if (p.requires_grad()) return true;
  }
  return false;
}

/// f(i) for every i in [0, n), in grain-sized blocks on the runtime pool.
template <typename F>
void each_index(std::int64_t n, F f) {
  runtime::parallel_for(0, n, runtime::kElementwiseGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) f(i);
                        });
}

}  // namespace

void Node::accumulate(const Tensor& g) {
  if (!grad_ready) return accumulate(Tensor(g));
  check_grad_shape(g, grad.shape());
  float* pg = grad.data().data();
  const float* ps = g.data().data();
  each_index(g.numel(), [pg, ps](std::int64_t i) { pg[i] += ps[i]; });
}

void Node::accumulate(Tensor&& g) {
  if (!grad_ready) {
    float* p = g.data().data();
    each_index(g.numel(), [p](std::int64_t i) { p[i] = 0.0f + p[i]; });
  }
  accumulate_as_is(std::move(g));
}

void Node::accumulate_as_is(Tensor&& g) {
  if (grad_ready) return accumulate(std::as_const(g));
  check_grad_shape(g, value.shape());
  grad = std::move(g);
  grad_ready = true;
}

Var::Var(Tensor value, bool requires_grad)
    : node_(std::make_shared<Node>(std::move(value), requires_grad)) {}

const Tensor& Var::grad() const {
  if (!node_->grad_ready) {
    node_->grad = Tensor(node_->value.shape());
    node_->grad_ready = true;
  }
  return node_->grad;
}

void Var::zero_grad() {
  node_->grad = Tensor(node_->value.shape());
  node_->grad_ready = true;
}

void Var::backward() {
  if (!defined()) throw std::logic_error("backward on undefined Var");
  if (node_->value.numel() != 1) {
    throw std::logic_error("backward requires a scalar root, got shape " +
                           shape_str(node_->value.shape()));
  }

  // Iterative post-order DFS for the topological order (recursion would
  // overflow on deep VGG graphs).
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [n, next_child] = stack.back();
    if (next_child < n->parents.size()) {
      Node* child = n->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      topo.push_back(n);
      stack.pop_back();
    }
  }

  node_->accumulate(Tensor(node_->value.shape(), 1.0f));
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* n = *it;
    if (!n->backward_fn || !n->grad_ready) continue;
    n->backward_fn(*n);
    // Every consumer of n came before it, so nothing adds into its
    // gradient again in this pass: free the buffer.
    n->grad = Tensor::none();
    n->grad_ready = false;
  }
}

bool grad_enabled() { return grad_flag(); }

NoGradGuard::NoGradGuard() : prev_(grad_flag()) { grad_flag() = false; }
NoGradGuard::~NoGradGuard() { grad_flag() = prev_; }

Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(Node&)> backward_fn) {
  if (!will_record(parents)) return Var::constant(std::move(value));

  Var out(std::move(value), true);
  auto node = out.node();
  node->parents.reserve(parents.size());
  for (auto& p : parents) node->parents.push_back(p.node());
  node->backward_fn = std::move(backward_fn);
  return out;
}

Var detach(const Var& v) { return Var::constant(v.value()); }

}  // namespace ibrar::ag
