// Small dense matrix algebra (the LTI baseline's least-squares fit).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace sb::est {

// Small dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix diagonal(const std::vector<double>& d);
  static Matrix column(const std::vector<double>& v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }

  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(double s) const;
  Matrix transposed() const;

  // Inverse via Gauss–Jordan with partial pivoting; throws on singularity.
  Matrix inverse() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

}  // namespace sb::est
