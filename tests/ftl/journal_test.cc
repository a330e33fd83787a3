// FTL metadata journal edge cases: empty replay, torn tails at the sync
// barrier, at-capacity compaction, and double-replay determinism. The broad
// every-boundary × every-tear sweep lives in bench/crash_sweep; these tests
// pin the individual contracts with hand-picked states.
#include "ftl/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SALA_SANITIZER_HEAP 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SALA_SANITIZER_HEAP 1
#endif

#if defined(SALA_SANITIZER_HEAP)
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#elif defined(__GLIBC__)
#include <malloc.h>
#endif

namespace salamander {
namespace {

// Bytes the process currently holds from its heap allocator, or 0 where
// this platform offers no way to ask.
size_t HeapBytesInUse() {
#if defined(SALA_SANITIZER_HEAP)
  return __sanitizer_get_current_allocated_bytes();
#elif defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

std::vector<JournalRecord> Copy(const std::deque<JournalRecord>& records) {
  return std::vector<JournalRecord>(records.begin(), records.end());
}

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

// High-endurance FTL with the kExtend record already durable, so tears in
// these tests only ever hit data records (a torn extend would shrink the
// logical space — a separate hazard the mdisk layer avoids by syncing after
// every carve).
Ftl MakeJournaledFtl(uint64_t logical_opages = 64,
                     uint64_t journal_capacity = 0) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  config.journal_capacity_records = journal_capacity;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(logical_opages);
  ftl.SyncJournal();
  return ftl;
}

TEST(FtlJournalTest, ReplayOfFreshFtlIsIdentity) {
  Ftl ftl = MakeJournaledFtl();
  const uint64_t before = ftl.StateDigest();
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.StateDigest(), before);
  EXPECT_EQ(ftl.rolled_back_count(), 0u);
  EXPECT_EQ(ftl.journal_replays(), 1u);
}

TEST(FtlJournalTest, BufferedWritesRollBackToUnmapped) {
  Ftl ftl = MakeJournaledFtl();
  // Two oPages stay in the volatile buffer (four fill an fPage and flush).
  ASSERT_TRUE(ftl.Write(10).ok());
  ASSERT_TRUE(ftl.Write(11).ok());
  ASSERT_EQ(ftl.buffered_opages(), 2u);

  ftl.SimulatePowerLoss(0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_TRUE(ftl.LpoRolledBack(10));
  EXPECT_TRUE(ftl.LpoRolledBack(11));
  EXPECT_EQ(ftl.PhysicalSlot(10), Ftl::kUnmappedSlot);
  EXPECT_EQ(ftl.PhysicalSlot(11), Ftl::kUnmappedSlot);
  EXPECT_EQ(ftl.Read(10).status().code(), StatusCode::kNotFound);
  // The next write of the page clears the staleness flag.
  ASSERT_TRUE(ftl.Write(10).ok());
  EXPECT_FALSE(ftl.LpoRolledBack(10));
}

TEST(FtlJournalTest, TornFinalMapRecordRollsBackOnlyThatPage) {
  Ftl ftl = MakeJournaledFtl();
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_EQ(ftl.buffered_opages(), 0u);  // one full fPage flushed
  uint64_t pre_slot[4];
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    pre_slot[lpo] = ftl.PhysicalSlot(lpo);
    ASSERT_NE(pre_slot[lpo], Ftl::kUnmappedSlot);
  }

  // The newest unsynced record is the kMap for lpo 3; tearing exactly one
  // record loses that acknowledgment and nothing else.
  ftl.SimulatePowerLoss(/*torn_records=*/1);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_TRUE(ftl.LpoRolledBack(3));
  EXPECT_EQ(ftl.PhysicalSlot(3), Ftl::kUnmappedSlot);
  for (uint64_t lpo = 0; lpo < 3; ++lpo) {
    EXPECT_FALSE(ftl.LpoRolledBack(lpo)) << "lpo " << lpo;
    EXPECT_EQ(ftl.PhysicalSlot(lpo), pre_slot[lpo]) << "lpo " << lpo;
  }
}

TEST(FtlJournalTest, TornTrimRestoresMappingAndFlagsStaleness) {
  Ftl ftl = MakeJournaledFtl();
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ftl.SyncJournal();  // the four kMap records are now durable
  const uint64_t slot = ftl.PhysicalSlot(1);
  ASSERT_TRUE(ftl.Trim(1).ok());
  EXPECT_EQ(ftl.PhysicalSlot(1), Ftl::kUnmappedSlot);

  // The acknowledged trim is the only unsynced record; tearing it reverts
  // the page to its durable mapping, and the lost ack is flagged.
  ftl.SimulatePowerLoss(1);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.PhysicalSlot(1), slot);
  EXPECT_TRUE(ftl.LpoRolledBack(1));
  EXPECT_TRUE(ftl.Read(1).ok());
}

TEST(FtlJournalTest, TearNeverCrossesSyncBarrier) {
  Ftl ftl = MakeJournaledFtl();
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());  // host flush is a durability barrier
  ASSERT_EQ(ftl.journal().unsynced(), 0u);
  uint64_t pre_slot[8];
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    pre_slot[lpo] = ftl.PhysicalSlot(lpo);
  }

  // Requesting a huge tear discards nothing: the barrier bounds the loss.
  // (Replay seals the ex-active block, so the whole-state digest changes;
  // what the barrier guarantees is that no acknowledged state is lost.)
  ftl.SimulatePowerLoss(/*torn_records=*/1000000);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.journal().torn_records(), 0u);
  EXPECT_EQ(ftl.rolled_back_count(), 0u);
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    EXPECT_EQ(ftl.PhysicalSlot(lpo), pre_slot[lpo]) << "lpo " << lpo;
  }
}

TEST(FtlJournalTest, CompactionAtCapacityPreservesReplayedState) {
  // A 96-record region overflows quickly under rewrite traffic; every
  // compaction must leave a fully-synced journal that still replays to the
  // exact pre-loss state.
  Ftl ftl = MakeJournaledFtl(/*logical_opages=*/64, /*journal_capacity=*/96);
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(ftl.Write(i % 48).ok());
    if (i % 7 == 0) {
      ASSERT_TRUE(ftl.Trim((i + 3) % 48).ok());
    }
  }
  ASSERT_TRUE(ftl.Flush().ok());
  EXPECT_GT(ftl.journal().compactions(), 0u);
  EXPECT_LE(ftl.journal().size(), ftl.journal().capacity());

  uint64_t pre_slot[48];
  for (uint64_t lpo = 0; lpo < 48; ++lpo) {
    pre_slot[lpo] = ftl.PhysicalSlot(lpo);
  }
  ftl.SimulatePowerLoss(0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.rolled_back_count(), 0u);
  // The compacted journal still reconstructs every acknowledged mapping —
  // including the trim holes — exactly.
  for (uint64_t lpo = 0; lpo < 48; ++lpo) {
    EXPECT_EQ(ftl.PhysicalSlot(lpo), pre_slot[lpo]) << "lpo " << lpo;
  }
}

TEST(FtlJournalTest, DoubleReplayIsDeterministic) {
  Ftl ftl = MakeJournaledFtl();
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(ftl.Write(i % 64).ok());
  }
  // Mid-stream crash with a torn tail; whatever state replay rebuilds, a
  // second crash-free replay of the same journal must reproduce it exactly.
  ftl.SimulatePowerLoss(/*torn_records=*/3);
  ASSERT_TRUE(ftl.Replay().ok());
  const uint64_t first = ftl.StateDigest();

  ftl.SimulatePowerLoss(0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.StateDigest(), first);
}

TEST(FtlJournalTest, ReplayedFtlStaysServiceable) {
  Ftl ftl = MakeJournaledFtl();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ftl.Write(i % 32).ok());
  }
  ftl.SimulatePowerLoss(2);
  ASSERT_TRUE(ftl.Replay().ok());
  // Post-replay the device serves normal I/O: writes, flush, reads.
  for (uint64_t lpo = 0; lpo < 32; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  for (uint64_t lpo = 0; lpo < 32; ++lpo) {
    EXPECT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
    EXPECT_FALSE(ftl.LpoRolledBack(lpo)) << "lpo " << lpo;
  }
  EXPECT_TRUE(ftl.CheckInvariants().ok());
}

// The journal's record sequence, sync barrier and counters follow a plain
// vector model exactly under a seeded mix of appends, syncs, tears and
// compactions.
TEST(FtlJournalTest, RecordsFollowVectorModelThroughAppendTearCompact) {
  FtlJournal journal(/*capacity_records=*/1 << 20);
  std::vector<JournalRecord> model;
  uint64_t model_synced = 0;
  Rng rng(17);
  for (uint64_t step = 0; step < 20000; ++step) {
    const uint64_t op = rng.UniformU64(100);
    if (op < 80) {
      const JournalRecord record{
          static_cast<JournalRecordType>(rng.UniformU64(9)), step,
          rng.UniformU64(1000), step * 3, step ^ 0x55};
      journal.Append(record);
      model.push_back(record);
    } else if (op < 90) {
      journal.Sync();
      model_synced = model.size();
    } else if (op < 98) {
      const uint64_t n = rng.UniformU64(12);
      const uint64_t torn = std::min<uint64_t>(n, model.size() - model_synced);
      const std::vector<JournalRecord> expected_tail(model.end() - torn,
                                                     model.end());
      EXPECT_EQ(journal.TearTail(n), expected_tail);
      model.resize(model.size() - torn);
    } else {
      // Compaction keeps an arbitrary (here: every third) subset.
      FtlJournal::Snapshot snapshot = journal.NewSnapshot();
      std::vector<JournalRecord> kept;
      for (size_t i = 0; i < model.size(); i += 3) {
        snapshot.Add(model[i]);
        kept.push_back(model[i]);
      }
      journal.ReplaceWith(std::move(snapshot));
      model = kept;
      model_synced = model.size();
    }
    ASSERT_EQ(journal.size(), model.size()) << "step " << step;
    ASSERT_EQ(journal.synced_count(), model_synced) << "step " << step;
  }
  EXPECT_EQ(Copy(journal.records()), model);
  EXPECT_GT(journal.compactions(), 0u);
  EXPECT_GT(journal.torn_records(), 0u);
}

// Compaction hands the storage of the records it replaced back to the
// allocator instead of keeping a buffer sized for the largest journal seen.
TEST(FtlJournalTest, CompactionReleasesReplacedStorage) {
  if (HeapBytesInUse() == 0) {
    GTEST_SKIP() << "no heap statistics on this platform";
  }
  constexpr uint64_t kRecords = 100000;  // ~4 MB of 40-byte records
  FtlJournal journal(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    journal.Append(JournalRecord{JournalRecordType::kMap, i, i, 0, 0});
  }
  journal.Sync();
  const size_t full = HeapBytesInUse();
  FtlJournal::Snapshot snapshot = journal.NewSnapshot();
  for (int i = 0; i < 10; ++i) {
    snapshot.Add(JournalRecord{JournalRecordType::kExtend, 64, 0, 0, 0});
  }
  journal.ReplaceWith(std::move(snapshot));
  const size_t compacted = HeapBytesInUse();
  EXPECT_EQ(journal.size(), 10u);
  EXPECT_EQ(journal.synced_count(), 10u);
  ASSERT_LT(compacted, full);
  EXPECT_GE(full - compacted, kRecords * sizeof(JournalRecord) * 9 / 10);
}

// Through the FTL: a power loss tears only the unsynced tail, replay reads
// the journal without changing it, and compaction leaves a synced snapshot
// that replays to the pre-loss mapping.
TEST(FtlJournalTest, TearAndReplayLeaveDurableRecordsUnchanged) {
  Ftl ftl = MakeJournaledFtl(/*logical_opages=*/64, /*journal_capacity=*/96);
  for (uint64_t i = 0; i < 301; ++i) {
    ASSERT_TRUE(ftl.Write(i % 40).ok());
  }
  ASSERT_GT(ftl.journal().compactions(), 0u);
  const std::vector<JournalRecord> before = Copy(ftl.journal().records());
  const uint64_t synced = ftl.journal().synced_count();
  const uint64_t unsynced = ftl.journal().unsynced();
  ASSERT_GT(unsynced, 0u);

  ftl.SimulatePowerLoss(/*torn_records=*/unsynced + 5);  // capped at the tail
  const std::vector<JournalRecord> durable(before.begin(),
                                           before.begin() + synced);
  EXPECT_EQ(Copy(ftl.journal().records()), durable);

  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(Copy(ftl.journal().records()), durable);
  EXPECT_EQ(ftl.journal().synced_count(), synced);
}

}  // namespace
}  // namespace salamander
