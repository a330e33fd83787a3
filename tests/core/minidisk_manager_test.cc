#include "core/minidisk_manager.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

struct Rig {
  std::unique_ptr<Ftl> ftl;
  std::unique_ptr<MinidiskManager> manager;
};

Rig MakeRig(uint32_t nominal_pec = 1000000, unsigned max_level = 0,
            uint64_t msize = 64,
            VictimPolicy policy = VictimPolicy::kLeastValid) {
  Rig rig;
  FtlConfig ftl_config = TestFtlConfig(TinyGeometry(), nominal_pec);
  ftl_config.max_usable_level = max_level;
  rig.ftl = std::make_unique<Ftl>(ftl_config);
  MinidiskConfig md_config;
  md_config.msize_opages = msize;
  md_config.victim_policy = policy;
  rig.manager = std::make_unique<MinidiskManager>(rig.ftl.get(), md_config);
  return rig;
}

TEST(MinidiskManagerTest, FormatsExpectedMinidiskCount) {
  Rig rig = MakeRig();
  // 1024 raw oPages, reserve = max(7% x 1024, 4 blocks x 64) = 256,
  // available = 768 -> 12 mDisks of 64 oPages.
  EXPECT_EQ(rig.manager->total_minidisks(), 12u);
  EXPECT_EQ(rig.manager->live_minidisks(), 12u);
  EXPECT_EQ(rig.manager->live_capacity_bytes(), 12u * 64 * 4096);
}

TEST(MinidiskManagerTest, FormatEmitsCreatedEvents) {
  Rig rig = MakeRig();
  auto events = rig.manager->TakeEvents();
  ASSERT_EQ(events.size(), 12u);
  for (uint32_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].type, MinidiskEventType::kCreated);
    EXPECT_EQ(events[i].mdisk, i);
  }
  EXPECT_TRUE(rig.manager->TakeEvents().empty());  // drained
}

TEST(MinidiskManagerTest, WriteReadRoundTrip) {
  Rig rig = MakeRig();
  ASSERT_TRUE(rig.manager->Write(3, 10).ok());
  auto read = rig.manager->Read(3, 10);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(rig.manager->valid_lbas(3), 1u);
}

TEST(MinidiskManagerTest, IoValidation) {
  Rig rig = MakeRig();
  EXPECT_EQ(rig.manager->Write(99, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rig.manager->Write(0, 64).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(rig.manager->Read(99, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rig.manager->Read(0, 999).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(rig.manager->Read(0, 0).status().code(), StatusCode::kNotFound);
}

TEST(MinidiskManagerTest, MinidisksAreIsolatedAddressSpaces) {
  Rig rig = MakeRig();
  ASSERT_TRUE(rig.manager->Write(0, 5).ok());
  // Same LBA in another mDisk is independent.
  EXPECT_EQ(rig.manager->Read(1, 5).status().code(), StatusCode::kNotFound);
}

TEST(MinidiskManagerTest, ReadRangeWithinMinidisk) {
  Rig rig = MakeRig();
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(rig.manager->Write(2, lba).ok());
  }
  auto range = rig.manager->ReadRange(2, 0, 8);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(rig.manager->ReadRange(2, 60, 8).status().code(),
            StatusCode::kOutOfRange);
}

TEST(MinidiskManagerTest, ValidCountTracksDistinctLbas) {
  Rig rig = MakeRig();
  ASSERT_TRUE(rig.manager->Write(1, 7).ok());
  ASSERT_TRUE(rig.manager->Write(1, 7).ok());  // overwrite
  ASSERT_TRUE(rig.manager->Write(1, 8).ok());
  EXPECT_EQ(rig.manager->valid_lbas(1), 2u);
}

// Ages the device until at least `target` decommissions happen (or writes
// stop succeeding anywhere).
void AgeUntilDecommissions(Rig& rig, uint64_t target, uint64_t max_writes) {
  Rng rng(77);
  uint64_t writes = 0;
  while (rig.manager->decommissioned_total() < target &&
         writes < max_writes && rig.manager->live_minidisks() > 0) {
    // Pick any live mDisk.
    MinidiskId md = 0;
    for (MinidiskId i = 0; i < rig.manager->total_minidisks(); ++i) {
      if (rig.manager->IsLive(i)) {
        md = i;
        break;
      }
    }
    (void)rig.manager->Write(md, rng.UniformU64(rig.manager->msize_opages()));
    ++writes;
  }
}

TEST(MinidiskManagerTest, WearDecommissionsMinidisks) {
  Rig rig = MakeRig(/*nominal_pec=*/20);
  AgeUntilDecommissions(rig, 2, 2000000);
  EXPECT_GE(rig.manager->decommissioned_total(), 2u);
  EXPECT_LT(rig.manager->live_minidisks(), 12u);
  auto events = rig.manager->TakeEvents();
  uint64_t decommissions = 0;
  for (const auto& event : events) {
    if (event.type == MinidiskEventType::kDecommissioned) {
      ++decommissions;
      EXPECT_FALSE(rig.manager->IsLive(event.mdisk));
    }
  }
  EXPECT_GE(decommissions + 0u, 2u);
}

TEST(MinidiskManagerTest, DecommissionedMinidiskRejectsIo) {
  Rig rig = MakeRig(/*nominal_pec=*/20);
  AgeUntilDecommissions(rig, 1, 2000000);
  ASSERT_GE(rig.manager->decommissioned_total(), 1u);
  MinidiskId dead = 0;
  for (MinidiskId i = 0; i < rig.manager->total_minidisks(); ++i) {
    if (!rig.manager->IsLive(i)) {
      dead = i;
      break;
    }
  }
  EXPECT_EQ(rig.manager->Write(dead, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rig.manager->Read(dead, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rig.manager->valid_lbas(dead), 0u);
}

TEST(MinidiskManagerTest, LeastValidPolicyPrefersEmptyMinidisk) {
  Rig rig = MakeRig(/*nominal_pec=*/20, 0, 64, VictimPolicy::kLeastValid);
  // Fill every mDisk except #5.
  Rng rng(5);
  for (MinidiskId md = 0; md < rig.manager->total_minidisks(); ++md) {
    if (md == 5) {
      continue;
    }
    for (uint64_t lba = 0; lba < 16; ++lba) {
      ASSERT_TRUE(rig.manager->Write(md, lba).ok());
    }
  }
  AgeUntilDecommissions(rig, 1, 2000000);
  ASSERT_GE(rig.manager->decommissioned_total(), 1u);
  // The empty mDisk must be the first victim.
  EXPECT_FALSE(rig.manager->IsLive(5));
}

TEST(MinidiskManagerTest, RegenSCreatesNewMinidisks) {
  Rig rig = MakeRig(/*nominal_pec=*/15, /*max_level=*/1);
  const uint32_t initial = rig.manager->total_minidisks();
  Rng rng(13);
  uint64_t writes = 0;
  while (rig.manager->regenerated_total() == 0 && writes < 3000000 &&
         rig.manager->live_minidisks() > 0) {
    MinidiskId md = 0;
    for (MinidiskId i = 0; i < rig.manager->total_minidisks(); ++i) {
      if (rig.manager->IsLive(i)) {
        md = i;
        break;
      }
    }
    (void)rig.manager->Write(md, rng.UniformU64(64));
    ++writes;
  }
  EXPECT_GT(rig.manager->regenerated_total(), 0u);
  EXPECT_GT(rig.manager->total_minidisks(), initial);
  // Regenerated mDisks carry a tiredness label >= 1.
  const Minidisk& regen = rig.manager->minidisk(initial);
  EXPECT_GE(regen.tiredness_level, 1u);
}

TEST(MinidiskManagerTest, ShrinkSNeverRegenerates) {
  Rig rig = MakeRig(/*nominal_pec=*/15, /*max_level=*/0);
  AgeUntilDecommissions(rig, 5, 3000000);
  EXPECT_EQ(rig.manager->regenerated_total(), 0u);
  EXPECT_EQ(rig.manager->total_minidisks(), 12u);
}

TEST(MinidiskManagerTest, CapacityDeclinesMonotonically) {
  Rig rig = MakeRig(/*nominal_pec=*/15, /*max_level=*/0);
  Rng rng(3);
  uint64_t last_capacity = rig.manager->live_capacity_bytes();
  for (int i = 0; i < 500000 && rig.manager->live_minidisks() > 0; ++i) {
    MinidiskId md = 0;
    for (MinidiskId j = 0; j < rig.manager->total_minidisks(); ++j) {
      if (rig.manager->IsLive(j)) {
        md = j;
        break;
      }
    }
    (void)rig.manager->Write(md, rng.UniformU64(64));
    const uint64_t capacity = rig.manager->live_capacity_bytes();
    ASSERT_LE(capacity, last_capacity) << "ShrinkS capacity grew";
    last_capacity = capacity;
  }
  EXPECT_LT(last_capacity, 12u * 64 * 4096);
}

// A write skips capacity maintenance when none of its inputs moved since
// the last run. A page retirement between two host writes, outside the
// manager's write path, moves the FTL's capacity version, so the next write
// still runs Eq. 2 and sheds the deficit the retirement opened.
TEST(MinidiskManagerTest, RetirementBetweenWritesStillShedsDeficit) {
  Rig rig = MakeRig(/*nominal_pec=*/20);
  // Format leaves no slack: 1024 usable == 12 x 64 logical + 256 reserve.
  const uint64_t reserve = 256;
  ASSERT_EQ(rig.ftl->usable_opages(), 12u * 64 + reserve);
  ASSERT_TRUE(rig.manager->Write(0, 0).ok());
  ASSERT_EQ(rig.manager->live_minidisks(), 12u);
  rig.manager->TakeEvents();

  // Wear the flash through the FTL directly until a page retires.
  const uint64_t usable = rig.ftl->usable_opages();
  const uint64_t first_lpo = rig.manager->minidisk(1).first_lpo;
  Rng rng(9);
  for (uint64_t i = 0; i < 2000000 && rig.ftl->usable_opages() == usable;
       ++i) {
    ASSERT_TRUE(rig.ftl->Write(first_lpo + rng.UniformU64(64)).ok());
  }
  ASSERT_LT(rig.ftl->usable_opages(), usable);
  ASSERT_EQ(rig.manager->live_minidisks(), 12u);

  const uint64_t version = rig.ftl->capacity_version();
  ASSERT_TRUE(rig.manager->Write(0, 1).ok());
  // The shed came from the earlier retirement: this write moved nothing.
  EXPECT_EQ(rig.ftl->capacity_version(), version);
  EXPECT_LT(rig.manager->live_minidisks(), 12u);
  EXPECT_GE(rig.ftl->usable_opages(),
            uint64_t{rig.manager->live_minidisks()} * 64 + reserve);
  uint64_t decommissions = 0;
  for (const MinidiskEvent& event : rig.manager->TakeEvents()) {
    decommissions += event.type == MinidiskEventType::kDecommissioned;
  }
  EXPECT_EQ(decommissions, 12u - rig.manager->live_minidisks());
}

}  // namespace
}  // namespace salamander
