#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#define SB_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SB_TEST_ASAN 1
#endif
#endif
#ifdef SB_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include <cmath>
#include <set>

#include "util/rng.hpp"
#include "util/scratch.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace sb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{9};
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(2, 5));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 2);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, NormalMoments) {
  Rng rng{11};
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng{12};
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.06);
  EXPECT_NEAR(s.stddev(), 2.0, 0.06);
}

TEST(Rng, SplitStreamsAreIndependentOfParentUse) {
  Rng parent1{5};
  Rng child1 = parent1.split();
  const double v1 = child1.uniform();

  Rng parent2{5};
  Rng child2 = parent2.split();
  parent2.uniform();  // extra parent draws must not affect the child
  EXPECT_EQ(child2.uniform(), v1);
}

TEST(Rng, PermutationIsValid) {
  Rng rng{13};
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationShuffles) {
  Rng rng{14};
  const auto p = rng.permutation(50);
  int in_place = 0;
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i] == i) ++in_place;
  EXPECT_LT(in_place, 10);
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.0));
}

TEST(Stats, SampleStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(sample_stddev(xs), 2.138, 1e-3);
}

TEST(Stats, EmptyInputsAreSafe) {
  const std::vector<double> xs;
  EXPECT_EQ(mean(xs), 0.0);
  EXPECT_EQ(stddev(xs), 0.0);
  EXPECT_EQ(median(xs), 0.0);
  EXPECT_EQ(max_of(xs), 0.0);
}

TEST(Stats, MedianAndPercentiles) {
  const std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{2, 3, 4};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, Mse) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{2, 2, 5};
  EXPECT_NEAR(sb::mse(a, b), (1.0 + 0.0 + 4.0) / 3.0, 1e-12);
}

TEST(Stats, RemoveOutliers) {
  std::vector<double> xs(100, 1.0);
  xs.push_back(1000.0);
  const auto kept = remove_outliers(xs, 3.0);
  EXPECT_EQ(kept.size(), 100u);
  EXPECT_DOUBLE_EQ(max_of(kept), 1.0);
}

TEST(Stats, NormalCdf) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(Stats, RunningStatsMatchesBatch) {
  const std::vector<double> xs{1.5, 2.5, -3.0, 0.25, 10.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(0.12345, 2), "0.12");
  EXPECT_EQ(Table::fmt(3.0, 0), "3");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3, CrossProduct) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  const Vec3 z = x.cross(y);
  EXPECT_DOUBLE_EQ(z.z, 1.0);
  EXPECT_DOUBLE_EQ(z.x, 0.0);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 0.0);
}

TEST(Mat3, IdentityActsTrivially) {
  const Mat3 i = Mat3::identity();
  const Vec3 v{1, -2, 3};
  const Vec3 r = i * v;
  EXPECT_DOUBLE_EQ(r.x, v.x);
  EXPECT_DOUBLE_EQ(r.y, v.y);
  EXPECT_DOUBLE_EQ(r.z, v.z);
}

TEST(Mat3, RotationIsOrthonormal) {
  const Mat3 r = rotation_from_euler(0.3, -0.2, 1.1);
  const Mat3 rrt = r * r.transposed();
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      EXPECT_NEAR(rrt(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Mat3, YawRotatesXTowardY) {
  const Mat3 r = rotation_from_euler(0, 0, M_PI / 2);
  const Vec3 v = r * Vec3{1, 0, 0};
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 1.0, 1e-12);
}

TEST(Mat3, PitchRotatesBodyZ) {
  // Nose-up pitch tilts the body -z (thrust) axis backward in NED.
  const Mat3 r = rotation_from_euler(0, 0.1, 0);
  const Vec3 thrust = r * Vec3{0, 0, -1};
  EXPECT_LT(thrust.x, 0.0);
}

// A Scratch<float>{100} asks for 400 bytes and gets a 512-byte bucket; the
// slack past the request and a released block on the free list must be
// poisoned, so ASan reports an overrun into either.
TEST(Scratch, PoolPoisonsSlackAndFreeBlocksUnderAsan) {
#ifndef SB_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  const char* released = nullptr;
  {
    util::Scratch<float> s{100};
    const char* p = reinterpret_cast<const char*>(s.data());
    EXPECT_FALSE(__asan_address_is_poisoned(p + 399));
    EXPECT_TRUE(__asan_address_is_poisoned(p + 400));
    released = p;
  }
  EXPECT_TRUE(__asan_address_is_poisoned(released));
#endif
}

}  // namespace
}  // namespace sb
