// Property tests: the FTL's internal accounting stays exactly consistent
// under randomized operation mixes across every configuration dimension
// (tiredness cap, retirement granularity, ECC placement, wear intensity).
#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

struct InvariantCase {
  EccPlacement placement;
  uint32_t nominal_pec;
  unsigned max_level;
  RetirementGranularity retirement;
  const char* name;
};

// gtest lists each case with its printed parameter: print the case name, not
// the struct's bytes (which would carry padding and a pointer).
void PrintTo(const InvariantCase& c, std::ostream* os) { *os << c.name; }

class FtlInvariantsTest : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(FtlInvariantsTest, AccountingConsistentUnderChurn) {
  const InvariantCase& param = GetParam();
  FtlConfig config = TestFtlConfig(TinyGeometry(), param.nominal_pec);
  config.max_usable_level = param.max_level;
  config.retirement = param.retirement;
  config.ecc_placement = param.placement;
  Ftl ftl(config);
  const uint64_t logical = 500;
  ftl.ExtendLogicalSpace(logical);

  Rng rng(20250707);
  for (int burst = 0; burst < 60; ++burst) {
    for (int op = 0; op < 1000; ++op) {
      const uint64_t lpo = rng.UniformU64(logical);
      const double dice = rng.UniformDouble();
      if (dice < 0.70) {
        (void)ftl.Write(lpo);  // may fail near death; accounting must hold
      } else if (dice < 0.85) {
        ASSERT_TRUE(ftl.Trim(lpo).ok());
      } else if (dice < 0.97) {
        (void)ftl.Read(lpo);
      } else if (dice < 0.99) {
        (void)ftl.Flush();
      } else {
        ftl.ClaimLimboCapacity(rng.UniformU64(16));
      }
    }
    ftl.TakeTransitions();
    ASSERT_EQ(ftl.CheckInvariants(), OkStatus())
        << "burst " << burst << ": " << ftl.CheckInvariants().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FtlInvariantsTest,
    ::testing::Values(
        InvariantCase{EccPlacement::kInline, 1000000, 0,
                      RetirementGranularity::kPage, "healthy_shrinks"},
        InvariantCase{EccPlacement::kInline, 25, 0,
                      RetirementGranularity::kPage, "wearing_shrinks"},
        InvariantCase{EccPlacement::kInline, 25, 1,
                      RetirementGranularity::kPage, "wearing_regens"},
        InvariantCase{EccPlacement::kInline, 25, 2,
                      RetirementGranularity::kPage, "regens_l2"},
        InvariantCase{EccPlacement::kDedicated, 25, 1,
                      RetirementGranularity::kPage, "regens_dedicated"},
        InvariantCase{EccPlacement::kInline, 25, 0,
                      RetirementGranularity::kBlockWorstPage, "block_worst"},
        InvariantCase{EccPlacement::kInline, 25, 0,
                      RetirementGranularity::kBlockAverage, "block_average"}),
    [](const ::testing::TestParamInfo<InvariantCase>& param_info) {
      return param_info.param.name;
    });

TEST(FtlInvariantsTest, FreshDevicePassesAudit) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), 1000);
  Ftl ftl(config);
  EXPECT_EQ(ftl.CheckInvariants(), OkStatus());
  ftl.ExtendLogicalSpace(100);
  EXPECT_EQ(ftl.CheckInvariants(), OkStatus());
}

}  // namespace
}  // namespace salamander
