#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/small_fn.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"

namespace deepserve {
namespace {

TEST(TypesTest, TimeConversionsRoundTrip) {
  EXPECT_EQ(MsToNs(1), 1000000);
  EXPECT_EQ(SToNs(2.5), 2500000000ll);
  EXPECT_DOUBLE_EQ(NsToMs(MsToNs(42)), 42.0);
  EXPECT_DOUBLE_EQ(NsToS(SToNs(0.125)), 0.125);
}

TEST(TypesTest, ByteHelpers) {
  EXPECT_EQ(GiB(1), 1ull << 30);
  EXPECT_EQ(MiB(2), 2ull << 20);
  EXPECT_DOUBLE_EQ(BytesToGiB(GiB(3.5)), 3.5);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such TE");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such TE");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such TE");
}

TEST(StatusTest, AllErrorFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(InvalidArgumentError("").code());
  codes.insert(NotFoundError("").code());
  codes.insert(AlreadyExistsError("").code());
  codes.insert(ResourceExhaustedError("").code());
  codes.insert(FailedPreconditionError("").code());
  codes.insert(UnavailableError("").code());
  codes.insert(InternalError("").code());
  codes.insert(UnimplementedError("").code());
  codes.insert(DeadlineExceededError("").code());
  codes.insert(AbortedError("").code());
  EXPECT_EQ(codes.size(), 10u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  DS_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalf(7, &out).code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, ForkIndependent) {
  Rng a(123);
  Rng fork = a.Fork();
  // The fork must not replay the parent stream.
  Rng parent_copy(123);
  (void)parent_copy.Next();  // parent consumed one draw to fork
  EXPECT_NE(fork.Next(), parent_copy.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyInverseRate) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.Normal(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.2) < 10) {
      ++low;
    }
  }
  // With s=1.2 the top-10 ranks carry well over half the mass.
  EXPECT_GT(low, n / 2);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.Zipf(64, 1.1);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 64);
  }
}

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-9);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Normal(5, 3);
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(SampleStatsTest, ExactPercentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
}

TEST(SampleStatsTest, EmptyIsZero) {
  SampleStats s;
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SampleStatsTest, FractionBelow) {
  SampleStats s;
  for (int i = 1; i <= 10; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.FractionBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.FractionBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.FractionBelow(10.0), 1.0);
}

TEST(SampleStatsTest, InterleavedAddAndQuery) {
  SampleStats s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.p50(), 3.0);
  s.Add(1.0);
  s.Add(2.0);
  EXPECT_DOUBLE_EQ(s.p50(), 2.0);  // re-sorts after mutation
}

TEST(SmallFnTest, EmptyByDefault) {
  common::SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_TRUE(fn == nullptr);
}

TEST(SmallFnTest, SmallCaptureStoredInlineAndInvocable) {
  int hits = 0;
  int* p = &hits;
  common::SmallFn fn([p] { ++*p; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, OversizedCaptureFallsBackToHeap) {
  std::array<int64_t, 16> big{};  // 128 bytes > kInlineBytes
  big[7] = 42;
  int64_t seen = 0;
  common::SmallFn fn([big, &seen] { seen = big[7]; });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(seen, 42);
}

TEST(SmallFnTest, MoveTransfersOwnershipForBothStorageModes) {
  for (bool heap : {false, true}) {
    auto counter = std::make_shared<int>(0);
    common::SmallFn src;
    if (heap) {
      std::array<int64_t, 16> pad{};
      src = common::SmallFn([counter, pad] { *counter += 1 + static_cast<int>(pad[0]); });
    } else {
      src = common::SmallFn([counter] { ++*counter; });
    }
    EXPECT_EQ(src.is_inline(), !heap);
    common::SmallFn dst = std::move(src);
    EXPECT_FALSE(static_cast<bool>(src));
    EXPECT_TRUE(static_cast<bool>(dst));
    dst();
    EXPECT_EQ(*counter, 1);
    // Destroying the moved-to wrapper releases the capture.
    dst.Reset();
    EXPECT_EQ(counter.use_count(), 1);
  }
}

TEST(SmallFnTest, ResetDestroysCapture) {
  auto token = std::make_shared<int>(7);
  common::SmallFn fn([token] {});
  EXPECT_EQ(token.use_count(), 2);
  fn.Reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFnTest, MoveAssignmentReleasesPreviousCapture) {
  auto old_token = std::make_shared<int>(1);
  auto new_token = std::make_shared<int>(2);
  common::SmallFn fn([old_token] {});
  fn = common::SmallFn([new_token] {});
  EXPECT_EQ(old_token.use_count(), 1);
  EXPECT_EQ(new_token.use_count(), 2);
}

}  // namespace
}  // namespace deepserve
