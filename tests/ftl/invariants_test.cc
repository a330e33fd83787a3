// Property tests: the FTL's internal accounting stays exactly consistent
// under randomized operation mixes across every configuration dimension
// (tiredness cap, retirement granularity, ECC placement, wear intensity).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

// gtest prints this struct byte-for-byte into each case's listed test name,
// so a fixed tag leads it: were the name pointer first, the names would move
// with wherever the linker puts the string literals. Each tag is the leading
// byte the case was first listed under.
struct InvariantCase {
  uint8_t tag;
  EccPlacement placement;
  uint32_t nominal_pec;
  unsigned max_level;
  RetirementGranularity retirement;
  const char* name;
};
static_assert(sizeof(InvariantCase) == 24,
              "the size is part of every listed case name");

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
        InvariantCase{0xE0, EccPlacement::kInline, 1000000, 0,
                      RetirementGranularity::kPage, "healthy_shrinks"},
        InvariantCase{0xF0, EccPlacement::kInline, 25, 0,
                      RetirementGranularity::kPage, "wearing_shrinks"},
        InvariantCase{0x00, EccPlacement::kInline, 25, 1,
                      RetirementGranularity::kPage, "wearing_regens"},
        InvariantCase{0x0F, EccPlacement::kInline, 25, 2,
                      RetirementGranularity::kPage, "regens_l2"},
        InvariantCase{0x19, EccPlacement::kDedicated, 25, 1,
                      RetirementGranularity::kPage, "regens_dedicated"},
        InvariantCase{0x2A, EccPlacement::kInline, 25, 0,
                      RetirementGranularity::kBlockWorstPage, "block_worst"},
        InvariantCase{0x36, EccPlacement::kInline, 25, 0,
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
