#include "nn/module.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "util/serialize.hpp"

namespace ibrar::nn {

std::vector<ag::Var> Module::parameters() {
  std::vector<ag::Var> out;
  for (auto& [name, p] : named_parameters()) out.push_back(p);
  return out;
}

std::vector<std::pair<std::string, ag::Var>> Module::named_parameters() {
  std::vector<std::pair<std::string, ag::Var>> out;
  for (auto& [name, p] : params_) out.emplace_back(name, p);
  for (auto& [cname, child] : children_) {
    for (auto& [pname, p] : child->named_parameters()) {
      out.emplace_back(cname + "." + pname, p);
    }
  }
  return out;
}

std::vector<std::pair<std::string, Tensor*>> Module::named_buffers() {
  std::vector<std::pair<std::string, Tensor*>> out;
  for (auto& [name, b] : buffers_) out.emplace_back(name, b);
  for (auto& [cname, child] : children_) {
    for (auto& [bname, b] : child->named_buffers()) {
      out.emplace_back(cname + "." + bname, b);
    }
  }
  return out;
}

void Module::set_training(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->set_training(training);
}

void Module::zero_grad() {
  for (auto& p : parameters()) p.zero_grad();
}

std::int64_t Module::num_parameters() {
  std::int64_t n = 0;
  for (auto& p : parameters()) n += p.numel();
  return n;
}

void Module::register_parameter(std::string name, ag::Var p) {
  params_.emplace_back(std::move(name), std::move(p));
}

void Module::register_buffer(std::string name, Tensor* buf) {
  buffers_.emplace_back(std::move(name), buf);
}

void Module::register_module(std::string name, std::shared_ptr<Module> m) {
  children_.emplace_back(std::move(name), std::move(m));
}

void save_model(Module& m, const std::string& path) {
  std::vector<serialize::NamedBlob> blobs;
  auto values = [](const Tensor& t) {
    return std::vector<float>(t.data().begin(), t.data().end());
  };
  for (auto& [name, p] : m.named_parameters()) {
    blobs.push_back({name, p.value().shape(), values(p.value())});
  }
  for (auto& [name, b] : m.named_buffers()) {
    blobs.push_back({"buffer:" + name, b->shape(), values(*b)});
  }
  serialize::save(path, blobs);
}

void load_model(Module& m, const std::string& path) {
  const auto blobs = serialize::load(path);
  std::unordered_map<std::string, const serialize::NamedBlob*> by_name;
  for (const auto& b : blobs) by_name[b.name] = &b;

  // Check every blob before writing any: a bad file leaves `m` as it was.
  std::vector<std::pair<std::string, Tensor*>> targets;
  for (auto& [name, p] : m.named_parameters()) {
    targets.emplace_back(name, &p.mutable_value());
  }
  for (auto& [name, b] : m.named_buffers()) {
    targets.emplace_back("buffer:" + name, b);
  }
  for (const auto& [name, t] : targets) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw std::runtime_error("load_model: missing " + name);
    }
    if (it->second->shape != t->shape()) {
      throw std::runtime_error("load_model: shape mismatch for " + name);
    }
  }
  for (const auto& [name, t] : targets) {
    const auto& data = by_name.at(name)->data;
    std::copy(data.begin(), data.end(), t->data().begin());
  }
}

}  // namespace ibrar::nn
