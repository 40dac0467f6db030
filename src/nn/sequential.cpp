#include "nn/layers.hpp"

namespace ibrar::nn {

void Sequential::push_back(ModulePtr m) {
  push_back(std::to_string(children_.size()), std::move(m));
}

void Sequential::push_back(std::string name, ModulePtr m) {
  register_module(std::move(name), std::move(m));
}

ag::Var Sequential::run(const ag::Var& x, Mode mode) const {
  ag::Var h = x;
  for (const auto& [name, m] : children_) h = m->forward(h, mode);
  return h;
}

}  // namespace ibrar::nn
