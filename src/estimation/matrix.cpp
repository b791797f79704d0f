#include "estimation/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace sb::est {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument{"Matrix: ragged initializer"};
    for (double v : r) data_.push_back(v);
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const std::vector<double>& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::column(const std::vector<double>& v) {
  Matrix m(v.size(), 1);
  for (std::size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

Matrix Matrix::operator+(const Matrix& o) const {
  if (rows_ != o.rows_ || cols_ != o.cols_)
    throw std::invalid_argument{"Matrix+: shape mismatch"};
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] += o.data_[i];
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  if (rows_ != o.rows_ || cols_ != o.cols_)
    throw std::invalid_argument{"Matrix-: shape mismatch"};
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] -= o.data_[i];
  return r;
}

Matrix Matrix::operator*(const Matrix& o) const {
  if (cols_ != o.rows_) throw std::invalid_argument{"Matrix*: shape mismatch"};
  Matrix r(rows_, o.cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < o.cols_; ++j) r(i, j) += a * o(k, j);
    }
  return r;
}

Matrix Matrix::operator*(double s) const {
  Matrix r = *this;
  for (auto& v : r.data_) v *= s;
  return r;
}

Matrix Matrix::transposed() const {
  Matrix r(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) r(j, i) = (*this)(i, j);
  return r;
}

Matrix Matrix::inverse() const {
  if (rows_ != cols_) throw std::invalid_argument{"Matrix::inverse: not square"};
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    if (std::abs(a(pivot, col)) < 1e-12)
      throw std::runtime_error{"Matrix::inverse: singular"};
    if (pivot != col)
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a(pivot, j), a(col, j));
        std::swap(inv(pivot, j), inv(col, j));
      }
    const double d = a(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      a(col, j) /= d;
      inv(col, j) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = a(r, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        a(r, j) -= f * a(col, j);
        inv(r, j) -= f * inv(col, j);
      }
    }
  }
  return inv;
}

}  // namespace sb::est
