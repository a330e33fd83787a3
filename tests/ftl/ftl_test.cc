#include "ftl/ftl.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

// High-endurance FTL: wear plays no role in these functional tests.
Ftl MakeFunctionalFtl(uint64_t logical_opages = 512) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(logical_opages);
  return ftl;
}

TEST(FtlTest, FreshDeviceState) {
  Ftl ftl = MakeFunctionalFtl();
  EXPECT_EQ(ftl.logical_opages(), 512u);
  EXPECT_EQ(ftl.usable_opages(), 1024u);
  EXPECT_EQ(ftl.mapped_opages(), 0u);
  EXPECT_EQ(ftl.dead_fpages(), 0u);
  EXPECT_EQ(ftl.free_blocks(), 16u);
}

TEST(FtlTest, ReadUnwrittenIsNotFound) {
  Ftl ftl = MakeFunctionalFtl();
  auto result = ftl.Read(0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FtlTest, OutOfRangeRejected) {
  Ftl ftl = MakeFunctionalFtl(100);
  EXPECT_EQ(ftl.Write(100).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ftl.Read(100).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ftl.Trim(100).code(), StatusCode::kOutOfRange);
}

TEST(FtlTest, WriteThenReadHitsBufferFirst) {
  Ftl ftl = MakeFunctionalFtl();
  ASSERT_TRUE(ftl.Write(5).ok());
  auto read = ftl.Read(5);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->buffer_hit);
  EXPECT_EQ(ftl.buffered_opages(), 1u);
}

TEST(FtlTest, BufferFlushesAtFPageCapacity) {
  Ftl ftl = MakeFunctionalFtl();
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  // Four oPages fill one L0 fPage; the buffer drains.
  EXPECT_EQ(ftl.buffered_opages(), 0u);
  EXPECT_EQ(ftl.stats().flushes, 1u);
  auto read = ftl.Read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->buffer_hit);
  EXPECT_EQ(read->tiredness_level, 0u);
}

TEST(FtlTest, ExplicitFlushDrainsPartialBuffer) {
  Ftl ftl = MakeFunctionalFtl();
  ASSERT_TRUE(ftl.Write(0).ok());
  ASSERT_TRUE(ftl.Write(1).ok());
  ASSERT_TRUE(ftl.Flush().ok());
  EXPECT_EQ(ftl.buffered_opages(), 0u);
  EXPECT_FALSE(ftl.Read(0)->buffer_hit);
}

TEST(FtlTest, OverwriteWhileBufferedCoalesces) {
  Ftl ftl = MakeFunctionalFtl();
  ASSERT_TRUE(ftl.Write(7).ok());
  ASSERT_TRUE(ftl.Write(7).ok());
  ASSERT_TRUE(ftl.Write(7).ok());
  EXPECT_EQ(ftl.buffered_opages(), 1u);
  EXPECT_EQ(ftl.mapped_opages(), 1u);
}

TEST(FtlTest, OverwriteInvalidatesOldSlot) {
  Ftl ftl = MakeFunctionalFtl();
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  const uint64_t old_slot = ftl.PhysicalSlot(0);
  ASSERT_NE(old_slot, Ftl::kUnmappedSlot);
  // Rewrite lpo 0 plus three others to force another flush.
  for (uint64_t lpo : {0ull, 10ull, 11ull, 12ull}) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  const uint64_t new_slot = ftl.PhysicalSlot(0);
  ASSERT_NE(new_slot, Ftl::kUnmappedSlot);
  EXPECT_NE(new_slot, old_slot);
}

TEST(FtlTest, TrimUnmapsAndAllowsRewrite) {
  Ftl ftl = MakeFunctionalFtl();
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_TRUE(ftl.Trim(2).ok());
  EXPECT_EQ(ftl.Read(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ftl.mapped_opages(), 3u);
  ASSERT_TRUE(ftl.Write(2).ok());
  EXPECT_TRUE(ftl.Read(2).ok());
}

TEST(FtlTest, TrimBufferedPage) {
  Ftl ftl = MakeFunctionalFtl();
  ASSERT_TRUE(ftl.Write(3).ok());
  ASSERT_TRUE(ftl.Trim(3).ok());
  EXPECT_EQ(ftl.buffered_opages(), 0u);
  EXPECT_EQ(ftl.Read(3).status().code(), StatusCode::kNotFound);
  // Rewrite after trim works and the stale buffer entry is skipped.
  for (uint64_t lpo : {3ull, 4ull, 5ull, 6ull}) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  EXPECT_TRUE(ftl.Read(3).ok());
}

TEST(FtlTest, TrimIdempotent) {
  Ftl ftl = MakeFunctionalFtl();
  ASSERT_TRUE(ftl.Write(1).ok());
  ASSERT_TRUE(ftl.Trim(1).ok());
  ASSERT_TRUE(ftl.Trim(1).ok());
  EXPECT_EQ(ftl.mapped_opages(), 0u);
}

TEST(FtlTest, GarbageCollectionReclaimsInvalidatedSpace) {
  // Logical space is half of physical; overwrite everything many times —
  // without GC the device would run out of free blocks.
  Ftl ftl = MakeFunctionalFtl(/*logical_opages=*/512);
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    for (uint64_t i = 0; i < 512; ++i) {
      ASSERT_TRUE(ftl.Write(rng.UniformU64(512)).ok()) << "round " << round;
    }
  }
  EXPECT_GT(ftl.stats().erases, 0u);
  EXPECT_GT(ftl.stats().gc_relocations, 0u);
  EXPECT_GE(ftl.free_blocks(), 1u);
}

TEST(FtlTest, MappingIntegrityUnderChurn) {
  // Invariant: after arbitrary write/trim churn, every mapped lpo points at
  // a unique physical slot whose reverse entry matches.
  Ftl ftl = MakeFunctionalFtl(/*logical_opages=*/400);
  Rng rng(17);
  std::unordered_set<uint64_t> live;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t lpo = rng.UniformU64(400);
    if (rng.Bernoulli(0.8)) {
      ASSERT_TRUE(ftl.Write(lpo).ok());
      live.insert(lpo);
    } else {
      ASSERT_TRUE(ftl.Trim(lpo).ok());
      live.erase(lpo);
    }
  }
  EXPECT_EQ(ftl.mapped_opages(), live.size());
  std::unordered_set<uint64_t> slots;
  for (uint64_t lpo = 0; lpo < 400; ++lpo) {
    const bool mapped = live.count(lpo) != 0;
    if (!mapped) {
      EXPECT_EQ(ftl.Read(lpo).status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
    const uint64_t slot = ftl.PhysicalSlot(lpo);
    if (slot != Ftl::kUnmappedSlot) {  // not still buffered
      EXPECT_TRUE(slots.insert(slot).second) << "slot aliased: " << slot;
    }
  }
}

TEST(FtlTest, WriteAmplificationReasonableAtLowUtilization) {
  Ftl ftl = MakeFunctionalFtl(/*logical_opages=*/256);  // 25% utilization
  Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    ASSERT_TRUE(ftl.Write(rng.UniformU64(256)).ok());
  }
  // With 75% slack, greedy GC should keep WAF very low.
  EXPECT_LT(ftl.stats().WriteAmplification(), 1.6);
}

TEST(FtlTest, WearLevelingSpreadsErases) {
  Ftl ftl = MakeFunctionalFtl(/*logical_opages=*/512);
  Rng rng(9);
  for (int i = 0; i < 40000; ++i) {
    ASSERT_TRUE(ftl.Write(rng.UniformU64(512)).ok());
  }
  uint32_t min_pec = UINT32_MAX;
  uint32_t max_pec = 0;
  for (BlockIndex b = 0; b < ftl.chip().geometry().total_blocks(); ++b) {
    min_pec = std::min(min_pec, ftl.chip().BlockPec(b));
    max_pec = std::max(max_pec, ftl.chip().BlockPec(b));
  }
  EXPECT_GT(max_pec, 0u);
  // Min-PEC allocation keeps the spread bounded under a uniform workload.
  EXPECT_LE(max_pec - min_pec, max_pec / 2 + 8);
}

TEST(FtlTest, ReadRangeSharesFlashReadsWithinFPage) {
  Ftl ftl = MakeFunctionalFtl();
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  // 8 sequential oPages written back-to-back occupy 2 full L0 fPages.
  auto range = ftl.ReadRange(0, 8);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->fpage_reads, 2u);
  EXPECT_EQ(range->buffer_hits, 0u);
  EXPECT_EQ(range->max_level, 0u);

  // Individual reads would have cost 8 flash reads.
  const FlashLatencyConfig latency;
  const SimDuration expected = 2 * latency.read_fpage +
                               8 * latency.TransferTime(4096);
  EXPECT_EQ(range->latency, expected);
}

TEST(FtlTest, ReadRangeValidation) {
  Ftl ftl = MakeFunctionalFtl(100);
  EXPECT_EQ(ftl.ReadRange(90, 20).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ftl.ReadRange(0, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ftl.ReadRange(0, 4).status().code(), StatusCode::kNotFound);
}

TEST(FtlTest, ReadRangeCountsBufferHits) {
  Ftl ftl = MakeFunctionalFtl();
  for (uint64_t lpo = 0; lpo < 6; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  // 4 flushed, 2 still buffered.
  auto range = ftl.ReadRange(0, 6);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->buffer_hits, 2u);
  EXPECT_EQ(range->fpage_reads, 1u);
}

TEST(FtlTest, StatsTrackHostOps) {
  Ftl ftl = MakeFunctionalFtl();
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ftl.Write(i).ok());
  }
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ftl.Read(i).ok());
  }
  EXPECT_EQ(ftl.stats().host_writes, 10u);
  EXPECT_EQ(ftl.stats().host_reads, 10u);
  EXPECT_GT(ftl.stats().buffer_hits, 0u);
}

// ---------------------------------------------------------------------------
// Wear / tiredness behaviour (fast-aging devices)
// ---------------------------------------------------------------------------

// Ages an FTL by overwriting its logical space round-robin.
void AgeByOverwrite(Ftl& ftl, uint64_t opage_writes, uint64_t logical) {
  for (uint64_t i = 0; i < opage_writes; ++i) {
    auto status = ftl.Write(i % logical);
    if (!status.ok()) {
      return;  // capacity exhausted: enough aging for the test
    }
  }
}

TEST(FtlWearTest, ShrinkSPagesDieAtLevelOne) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/20);
  config.max_usable_level = 0;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  AgeByOverwrite(ftl, 200000, 512);
  EXPECT_GT(ftl.dead_fpages(), 0u);
  EXPECT_EQ(ftl.reclaimable_limbo_opages(), 0u);  // nothing revivable at L0
  EXPECT_LT(ftl.usable_opages(), 1024u);
}

TEST(FtlWearTest, RegenSPagesEnterLimboAtLevelOne) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/20);
  config.max_usable_level = 1;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  AgeByOverwrite(ftl, 120000, 512);
  // Pages that tired out of L0 should be sitting in limbo at L1.
  EXPECT_GT(ftl.limbo_fpages(1), 0u);
  EXPECT_GT(ftl.reclaimable_limbo_opages(), 0u);
}

TEST(FtlWearTest, TransitionsReported) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/20);
  config.max_usable_level = 1;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  uint64_t to_limbo = 0;
  uint64_t to_dead = 0;
  for (uint64_t i = 0; i < 150000; ++i) {
    if (!ftl.Write(i % 512).ok()) {
      break;
    }
    for (const PageTransition& t : ftl.TakeTransitions()) {
      EXPECT_LT(t.old_level, 2u);
      if (t.new_level == Ftl::kDeadLevel) {
        ++to_dead;
      } else {
        EXPECT_GT(t.new_level, t.old_level);
        ++to_limbo;
      }
    }
  }
  EXPECT_GT(to_limbo, 0u);
}

TEST(FtlWearTest, ClaimLimboCapacityRestoresService) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/20);
  config.max_usable_level = 1;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  AgeByOverwrite(ftl, 120000, 512);
  const uint64_t reclaimable = ftl.reclaimable_limbo_opages();
  ASSERT_GT(reclaimable, 0u);
  const uint64_t before = ftl.usable_opages();
  const uint64_t claimed = ftl.ClaimLimboCapacity(3);
  EXPECT_GE(claimed, 3u);
  EXPECT_EQ(ftl.usable_opages(), before + claimed);
  EXPECT_EQ(ftl.reclaimable_limbo_opages(), reclaimable - claimed);
}

TEST(FtlWearTest, ClaimMoreThanAvailableClaimsEverything) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/20);
  config.max_usable_level = 1;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  AgeByOverwrite(ftl, 120000, 512);
  const uint64_t reclaimable = ftl.reclaimable_limbo_opages();
  ASSERT_GT(reclaimable, 0u);
  EXPECT_EQ(ftl.ClaimLimboCapacity(UINT64_MAX), reclaimable);
  EXPECT_EQ(ftl.reclaimable_limbo_opages(), 0u);
}

TEST(FtlWearTest, RevivedPagesServeDataAtLevelOne) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/15);
  config.max_usable_level = 1;
  Ftl ftl(config);
  const uint64_t logical = 512;
  ftl.ExtendLogicalSpace(logical);
  AgeByOverwrite(ftl, 150000, logical);
  ftl.ClaimLimboCapacity(UINT64_MAX);
  // Keep writing: some data should now land on L1 pages and read back.
  AgeByOverwrite(ftl, 20000, logical);
  uint64_t l1_reads = 0;
  for (uint64_t lpo = 0; lpo < logical; ++lpo) {
    auto read = ftl.Read(lpo);
    if (read.ok() && read->tiredness_level == 1) {
      ++l1_reads;
    }
  }
  EXPECT_GT(l1_reads, 0u);
}

TEST(FtlWearTest, BlockWorstPageRetirementKillsWholeBlocks) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/20);
  config.retirement = RetirementGranularity::kBlockWorstPage;
  config.max_usable_level = 0;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  AgeByOverwrite(ftl, 200000, 512);
  EXPECT_GT(ftl.retired_blocks(), 0u);
  // Dead pages arrive in whole-block multiples.
  EXPECT_EQ(ftl.dead_fpages() %
                TinyGeometry().fpages_per_block,
            0u);
}

TEST(FtlWearTest, PageGranularityOutlivesBlockGranularity) {
  // The core ShrinkS-vs-CVSS claim (§4): page-granular retirement preserves
  // the strong pages of blocks whose weak pages died, so the device sustains
  // more total writes before losing the same capacity than a design that
  // retires whole blocks on their worst page.
  auto run = [](RetirementGranularity granularity) {
    FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/15);
    config.retirement = granularity;
    config.max_usable_level = 0;
    Ftl ftl(config);
    ftl.ExtendLogicalSpace(400);
    uint64_t writes = 0;
    while (writes < 2000000 && ftl.usable_opages() > 700) {
      if (!ftl.Write(writes % 400).ok()) {
        break;
      }
      ++writes;
    }
    return writes;
  };
  const uint64_t page_writes = run(RetirementGranularity::kPage);
  const uint64_t block_worst_writes =
      run(RetirementGranularity::kBlockWorstPage);
  const uint64_t block_avg_writes = run(RetirementGranularity::kBlockAverage);
  EXPECT_GT(page_writes, block_worst_writes);
  // The unsafe averaging ablation postpones retirement past the weak pages'
  // reliability point, so it retains capacity even longer than worst-page —
  // the "win" it buys by sacrificing UBER.
  EXPECT_GT(block_avg_writes, block_worst_writes);
}

// A flush batch holds at most kMaxOPagesPerFPage (16) oPages on the stack;
// a geometry with larger fPages is refused in every build type.
TEST(FtlDeathTest, RejectsFPagesLargerThanTheFlushBatch) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000);
  config.geometry.opages_per_fpage = 32;
  config.ecc_geometry.opages_per_fpage = 32;
  EXPECT_DEATH(Ftl{config}, "exceeds the limit");
}

}  // namespace
}  // namespace salamander
