// Ftl::SharedTirednessLadder, the per-geometry memo behind every Ftl's
// tiredness ladder: it must return exactly what ComputeTirednessLadder
// builds, keep geometries that differ in any one field apart, and build a
// geometry once even when Ftls are constructed on several threads at once.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ecc/tiredness.h"
#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

TEST(TirednessLadderMemoTest, MatchesDirectBuildForDefaultGeometry) {
  const FPageEccGeometry geometry;
  const std::vector<TirednessLevelEcc> direct =
      ComputeTirednessLadder(geometry);
  EXPECT_EQ(Ftl::SharedTirednessLadder(geometry), direct);
  // The second lookup is served from the memo: same value, no new entry.
  const size_t memoized = Ftl::SharedTirednessLadderCount();
  EXPECT_EQ(Ftl::SharedTirednessLadder(geometry), direct);
  EXPECT_EQ(Ftl::SharedTirednessLadderCount(), memoized);
}

TEST(TirednessLadderMemoTest, MatchesDirectBuildForNonDefaultGeometry) {
  FPageEccGeometry geometry;
  geometry.opages_per_fpage = 8;
  geometry.gf_m = 15;
  const std::vector<TirednessLevelEcc> direct =
      ComputeTirednessLadder(geometry);
  ASSERT_EQ(direct.size(), 9u);
  EXPECT_EQ(Ftl::SharedTirednessLadder(geometry), direct);
  EXPECT_NE(direct, ComputeTirednessLadder(FPageEccGeometry{}));
}

TEST(TirednessLadderMemoTest, GeometriesDifferingInOneFieldGetDistinctLadders) {
  // One variant per field of FPageEccGeometry, each differing from the
  // default in that field alone.
  std::vector<FPageEccGeometry> variants(6);
  variants[0].opage_bytes = 2048;
  variants[1].opages_per_fpage = 2;
  variants[2].spare_bytes = 1024;
  variants[3].stripes_per_opage = 8;
  variants[4].gf_m = 15;
  variants[5].stripe_fail_target = 1e-9;
  const std::vector<TirednessLevelEcc> base =
      Ftl::SharedTirednessLadder(FPageEccGeometry{});
  for (size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    ASSERT_FALSE(variants[i] == FPageEccGeometry{});
    const std::vector<TirednessLevelEcc> ladder =
        Ftl::SharedTirednessLadder(variants[i]);
    EXPECT_EQ(ladder, ComputeTirednessLadder(variants[i]));
    EXPECT_NE(ladder, base);
  }
  // Looking the default up again still yields its own ladder.
  EXPECT_EQ(Ftl::SharedTirednessLadder(FPageEccGeometry{}), base);
}

TEST(TirednessLadderMemoTest, ConcurrentFtlConstructionBuildsOnceAndAgrees) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000);
  // A geometry no other test uses, so its first build happens below.
  config.ecc_geometry.stripe_fail_target = 3e-12;
  const size_t before = Ftl::SharedTirednessLadderCount();

  constexpr int kThreads = 4;
  constexpr int kFtlsPerThread = 4;
  std::vector<std::vector<TirednessLevelEcc>> seen(kThreads * kFtlsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&config, &seen, t] {
      for (int k = 0; k < kFtlsPerThread; ++k) {
        Ftl ftl(config);
        seen[t * kFtlsPerThread + k] = ftl.tiredness_ladder();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(Ftl::SharedTirednessLadderCount(), before + 1);
  const std::vector<TirednessLevelEcc> direct =
      ComputeTirednessLadder(config.ecc_geometry);
  for (const std::vector<TirednessLevelEcc>& ladder : seen) {
    EXPECT_EQ(ladder, direct);
  }
}

}  // namespace
}  // namespace salamander
