#include "detect/running_mean.hpp"

#include <algorithm>

#include "util/binary_io.hpp"

namespace sb::detect {

RunningMeanMonitor::RunningMeanMonitor(std::size_t window) : window_(window) {
  if (window_ > 0) buffer_.assign(window_, 0.0);
}

double RunningMeanMonitor::add(double error) {
  if (window_ == 0) {
    sum_.add(error);
    ++count_;
  } else {
    if (count_ < window_) {
      buffer_[head_] = error;
      sum_.add(error);
      ++count_;
    } else {
      sum_.add(error);
      sum_.add(-buffer_[head_]);
      buffer_[head_] = error;
    }
    head_ = (head_ + 1) % window_;
  }
  peak_ = std::max(peak_, current());
  return current();
}

double RunningMeanMonitor::current() const {
  const std::size_t n = window_ == 0 ? count_ : std::min(count_, window_);
  return n == 0 ? 0.0 : sum_.value() / static_cast<double>(n);
}

void RunningMeanMonitor::reset() {
  head_ = 0;
  count_ = 0;
  sum_.reset();
  peak_ = 0.0;
  if (window_ > 0) std::fill(buffer_.begin(), buffer_.end(), 0.0);
}

RunningVecMeanMonitor::RunningVecMeanMonitor(std::size_t window) : window_(window) {
  if (window_ > 0) buffer_.assign(window_, Vec3{});
}

double RunningVecMeanMonitor::add(const Vec3& error) {
  if (window_ == 0) {
    sum_[0].add(error.x);
    sum_[1].add(error.y);
    sum_[2].add(error.z);
    ++count_;
  } else {
    if (count_ < window_) {
      buffer_[head_] = error;
      sum_[0].add(error.x);
      sum_[1].add(error.y);
      sum_[2].add(error.z);
      ++count_;
    } else {
      sum_[0].add(error.x);
      sum_[1].add(error.y);
      sum_[2].add(error.z);
      sum_[0].add(-buffer_[head_].x);
      sum_[1].add(-buffer_[head_].y);
      sum_[2].add(-buffer_[head_].z);
      buffer_[head_] = error;
    }
    head_ = (head_ + 1) % window_;
  }
  peak_ = std::max(peak_, current());
  return current();
}

double RunningVecMeanMonitor::current() const {
  const std::size_t n = window_ == 0 ? count_ : std::min(count_, window_);
  if (n == 0) return 0.0;
  const Vec3 mean{sum_[0].value() / static_cast<double>(n),
                  sum_[1].value() / static_cast<double>(n),
                  sum_[2].value() / static_cast<double>(n)};
  return mean.norm();
}

void RunningVecMeanMonitor::reset() {
  head_ = 0;
  count_ = 0;
  for (auto& s : sum_) s.reset();
  peak_ = 0.0;
  if (window_ > 0) std::fill(buffer_.begin(), buffer_.end(), Vec3{});
}

void RunningVecMeanMonitor::save_state(std::ostream& os) const {
  using util::io::write_pod;
  write_pod(os, static_cast<std::uint64_t>(window_));
  write_pod(os, static_cast<std::uint64_t>(head_));
  write_pod(os, static_cast<std::uint64_t>(count_));
  for (const auto& s : sum_) {
    write_pod(os, s.raw_sum());
    write_pod(os, s.compensation());
  }
  write_pod(os, peak_);
  util::io::write_pod_vec(os, buffer_);
}

bool RunningVecMeanMonitor::load_state(std::istream& is) {
  using util::io::read_pod;
  std::uint64_t window = 0, head = 0, count = 0;
  if (!read_pod(is, window) || window != window_) return false;
  // add() indexes the ring with head: it must lie inside it.
  if (!read_pod(is, head) || !read_pod(is, count) ||
      (window_ > 0 && head >= window_))
    return false;
  double sums[3][2];
  for (auto& s : sums)
    if (!read_pod(is, s[0]) || !read_pod(is, s[1])) return false;
  double peak = 0.0;
  if (!read_pod(is, peak)) return false;
  std::vector<Vec3> buffer;
  if (!util::io::read_pod_vec(is, buffer) || buffer.size() != buffer_.size())
    return false;
  head_ = static_cast<std::size_t>(head);
  count_ = static_cast<std::size_t>(count);
  for (std::size_t a = 0; a < 3; ++a) sum_[a].restore(sums[a][0], sums[a][1]);
  peak_ = peak;
  buffer_ = std::move(buffer);
  return true;
}

}  // namespace sb::detect
