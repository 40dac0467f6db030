#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ibrar {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension");
    n *= d;
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor() : shape_{}, data_(1, 0.0f) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), fill) {}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : Tensor(std::move(shape), UnfilledTag{}) {
  if (data.size() != data_.size()) {
    throw std::invalid_argument("Tensor: data size " +
                                std::to_string(data.size()) +
                                " does not match shape " + shape_str(shape_));
  }
  std::copy(data.begin(), data.end(), data_.begin());
}

Tensor::Tensor(const Tensor& other) : Tensor(other.shape_, UnfilledTag{}) {
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor::Tensor(Shape shape, UnfilledTag)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_))) {}

Tensor Tensor::eye(std::int64_t n) {
  Tensor t({n, n});
  for (std::int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::arange(std::int64_t n, float start, float step) {
  Tensor t({n});
  for (std::int64_t i = 0; i < n; ++i) t[i] = start + step * static_cast<float>(i);
  return t;
}

std::int64_t Tensor::dim(std::int64_t i) const {
  if (i < 0) i += rank();
  if (i < 0 || i >= rank()) throw std::out_of_range("Tensor::dim index");
  return shape_[static_cast<std::size_t>(i)];
}

float& Tensor::at(std::int64_t i) {
  assert(rank() == 1);
  return data_[static_cast<std::size_t>(i)];
}
float Tensor::at(std::int64_t i) const {
  assert(rank() == 1);
  return data_[static_cast<std::size_t>(i)];
}
float& Tensor::at(std::int64_t i, std::int64_t j) {
  assert(rank() == 2);
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}
float Tensor::at(std::int64_t i, std::int64_t j) const {
  assert(rank() == 2);
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}
float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  assert(rank() == 3);
  return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
}
float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const {
  assert(rank() == 3);
  return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
}
float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
  assert(rank() == 4);
  return data_[static_cast<std::size_t>(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
}
float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const {
  assert(rank() == 4);
  return data_[static_cast<std::size_t>(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
}

float Tensor::item() const {
  if (numel() != 1) {
    throw std::logic_error("Tensor::item on tensor with numel=" +
                           std::to_string(numel()));
  }
  return data_[0];
}

Tensor Tensor::reshape(Shape new_shape) const& {
  return Tensor(*this).reshape(std::move(new_shape));
}

Tensor Tensor::reshape(Shape new_shape) && {
  // Support a single -1 wildcard dimension.
  std::int64_t wildcard = -1;
  std::int64_t known = 1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (wildcard != -1) throw std::invalid_argument("reshape: two wildcards");
      wildcard = static_cast<std::int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (wildcard >= 0) {
    if (known == 0 || numel() % known != 0) {
      throw std::invalid_argument("reshape: wildcard does not divide");
    }
    new_shape[static_cast<std::size_t>(wildcard)] = numel() / known;
  }
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape: numel mismatch " + shape_str(shape_) +
                                " -> " + shape_str(new_shape));
  }
  shape_ = std::move(new_shape);
  return std::move(*this);
}

std::vector<std::int64_t> Tensor::strides() const {
  return row_major_strides(shape_);
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

bool Tensor::all_finite() const {
  for (const auto x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::string Tensor::to_string(std::int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_str(shape_) << " {";
  const auto n = std::min<std::int64_t>(numel(), max_elems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i != 0) os << ", ";
    os << data_[static_cast<std::size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << '}';
  return os.str();
}

std::vector<std::int64_t> row_major_strides(const Shape& shape) {
  std::vector<std::int64_t> s(shape.size(), 1);
  for (std::int64_t i = static_cast<std::int64_t>(shape.size()) - 2; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] =
        s[static_cast<std::size_t>(i + 1)] * shape[static_cast<std::size_t>(i + 1)];
  }
  return s;
}

Shape broadcast_shape(const Shape& a, const Shape& b) {
  const std::size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    const std::int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const std::int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    if (da != db && da != 1 && db != 1) {
      throw std::invalid_argument("broadcast: incompatible shapes " +
                                  shape_str(a) + " and " + shape_str(b));
    }
    out[i] = da == 1 ? db : da;  // a 0 against a 1 stays 0
  }
  return out;
}

}  // namespace ibrar
