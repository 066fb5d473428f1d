#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace hybridcnn::tensor {

Tensor::Tensor(Shape shape)
    : shape_(shape), data_(shape.count(), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(shape), data_(shape.count(), value) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(shape), data_(std::move(values)) {
  if (data_.size() != shape_.count()) {
    throw std::invalid_argument("Tensor: value count does not match shape " +
                                shape_.str());
  }
}

float Tensor::at(std::size_t i) const {
  if (i >= data_.size()) throw std::out_of_range("Tensor::at");
  return data_[i];
}

float& Tensor::at(std::size_t i) {
  if (i >= data_.size()) throw std::out_of_range("Tensor::at");
  return data_[i];
}

float Tensor::at4(std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w) const {
  return const_cast<Tensor*>(this)->at4(n, c, h, w);
}

float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h,
                   std::size_t w) {
  if (shape_.rank() != 4 || n >= shape_[0] || c >= shape_[1] ||
      h >= shape_[2] || w >= shape_[3]) {
    throw std::out_of_range("Tensor::at4 on shape " + shape_.str());
  }
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at3(std::size_t c, std::size_t h, std::size_t w) const {
  return const_cast<Tensor*>(this)->at3(c, h, w);
}

float& Tensor::at3(std::size_t c, std::size_t h, std::size_t w) {
  if (shape_.rank() != 3 || c >= shape_[0] || h >= shape_[1] ||
      w >= shape_[2]) {
    throw std::out_of_range("Tensor::at3 on shape " + shape_.str());
  }
  return data_[(c * shape_[1] + h) * shape_[2] + w];
}

float Tensor::at2(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at2(r, c);
}

float& Tensor::at2(std::size_t r, std::size_t c) {
  if (shape_.rank() != 2 || r >= shape_[0] || c >= shape_[1]) {
    throw std::out_of_range("Tensor::at2 on shape " + shape_.str());
  }
  return data_[r * shape_[1] + c];
}

void Tensor::fill(float value) noexcept {
  for (float& v : data_) v = value;
}

void Tensor::fill_normal(util::Rng& rng, float mean, float stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
}

void Tensor::fill_uniform(util::Rng& rng, float lo, float hi) {
  for (float& v : data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
}

void Tensor::reshape(Shape shape) {
  if (shape.count() != data_.size()) {
    throw std::invalid_argument("Tensor::reshape: element count mismatch");
  }
  shape_ = shape;
}

std::size_t Tensor::argmax() const {
  if (data_.empty()) throw std::logic_error("Tensor::argmax on empty tensor");
  std::size_t best = 0;
  for (std::size_t i = 1; i < data_.size(); ++i) {
    if (data_[i] > data_[best]) best = i;
  }
  return best;
}

double Tensor::sum() const noexcept {
  double s = 0.0;
  for (const float v : data_) s += v;
  return s;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  if (shape_ != other.shape_) {
    throw std::invalid_argument("Tensor::max_abs_diff: shape mismatch");
  }
  float worst = 0.0f;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  }
  return worst;
}

bool bit_identical(const Tensor& a, const Tensor& b) noexcept {
  // memcmp compares bits: a +0/-0 swap or a changed NaN payload differs.
  return a.shape() == b.shape() &&
         (a.count() == 0 ||
          std::memcmp(a.data().data(), b.data().data(),
                      a.count() * sizeof(float)) == 0);
}

}  // namespace hybridcnn::tensor
