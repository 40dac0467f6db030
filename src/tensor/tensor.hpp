#pragma once
// Dense row-major float32 tensor with value semantics.
//
// This is the numerical substrate for the whole library: a small, predictable
// N-d array (rank <= 4 is what the models use) with NumPy-style broadcasting
// implemented in ops.hpp. Data is owned by value (a std::vector), so copies
// are deep and moves are cheap; the autograd layer adds sharing on top.
//
// Zero-fill contract: every constructor writes every element (Tensor(shape)
// writes zeros) except Tensor::unfilled, which skips the memset for kernels
// that write every element before the tensor is read: the elementwise maps
// and broadcasts, the ReLU backward, conv2d's output and weight gradient,
// max pooling's output, and batch norm's output, per-channel constants and
// input gradient.

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

namespace ibrar {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (empty shape = scalar = 1 element).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3, 4]".
std::string shape_str(const Shape& shape);

/// Dense row-major float tensor.
class Tensor {
 public:
  /// Empty (rank-0, one element, value 0): behaves as a scalar.
  Tensor();

  /// Zero-initialized tensor of `shape`.
  explicit Tensor(Shape shape);

  /// Tensor of `shape` filled with `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor holding a copy of `data` (size must match shape).
  Tensor(Shape shape, const std::vector<float>& data);

  // Copies are one std::copy (a memmove): the storage's own copy would
  // construct element by element through its allocator.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other) { return *this = Tensor(other); }
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  static Tensor scalar(float v) { return Tensor(Shape{}, v); }

  /// Tensor of `shape` whose elements are indeterminate: only for a kernel
  /// that writes every element before anything reads one.
  static Tensor unfilled(Shape shape) {
    return Tensor(std::move(shape), UnfilledTag{});
  }

  /// Identity-like matrix (n x n).
  static Tensor eye(std::int64_t n);

  /// Evenly spaced values [start, start + step*n).
  static Tensor arange(std::int64_t n, float start = 0.0f, float step = 1.0f);

  const Shape& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::span<float> data() { return std::span<float>(data_); }
  std::span<const float> data() const { return std::span<const float>(data_); }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Multi-index access (rank must match argument count).
  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  float& at(std::int64_t i, std::int64_t j);
  float at(std::int64_t i, std::int64_t j) const;
  float& at(std::int64_t i, std::int64_t j, std::int64_t k);
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const;
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l);
  float at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const;

  /// Scalar value of a one-element tensor.
  float item() const;

  /// Same data, new shape (numel must match). The rvalue overload moves the
  /// buffer instead of copying it.
  Tensor reshape(Shape new_shape) const&;
  Tensor reshape(Shape new_shape) &&;

  /// Row-major strides of this tensor's shape.
  std::vector<std::int64_t> strides() const;

  /// Fill in place.
  void fill(float v);

  /// True if every element is finite.
  bool all_finite() const;

  /// Compact preview string for logging/debugging.
  std::string to_string(std::int64_t max_elems = 16) const;

 private:
  /// std::allocator whose value-less construct() default-initializes, so a
  /// sized vector is allocated but not written.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    using std::allocator<T>::allocator;
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
  };
  struct UnfilledTag {};
  Tensor(Shape shape, UnfilledTag);

  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

/// Row-major strides of `shape`.
std::vector<std::int64_t> row_major_strides(const Shape& shape);

/// NumPy broadcast result shape; throws std::invalid_argument on mismatch.
Shape broadcast_shape(const Shape& a, const Shape& b);

}  // namespace ibrar
