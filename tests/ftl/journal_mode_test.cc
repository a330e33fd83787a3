// Journal position vs records (FtlConfig::crash_journal).
//
// A record-less FTL must evolve its journal *position* exactly as a
// record-keeping one does: same StateDigest, size, sync barrier, syncs and
// compactions after every step of a seeded random op sequence (writes,
// trims, flushes, mDisk create/drain/drop, GC pressure, injected program
// and erase failures; bounded and unbounded L2P; a tiny journal so
// compactions are frequent). The O(1) unsynced-kMapFlush counter must agree
// with a scan of the unsynced tail, also across torn tails in record mode.
// Power loss, replay and record access on a record-less FTL die loudly.
#include "ftl/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "ftl/ftl.h"
#include "ssd/ssd_device.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

constexpr uint64_t kMdiskOPages = 32;

// The pre-counter check: does any record past the sync barrier flush a map
// page? Counted exactly, so the test also pins the counter's value.
uint64_t ScanUnsyncedMapFlushes(const FtlJournal& journal) {
  uint64_t n = 0;
  for (uint64_t i = journal.synced_count(); i < journal.size(); ++i) {
    n += journal.records()[i].type == JournalRecordType::kMapFlush;
  }
  return n;
}

FtlConfig ModelConfig(bool bounded_l2p, uint64_t seed) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/400, seed);
  config.max_usable_level = 1;  // RegenS-style: pages tire into limbo
  // Tiny journals: odd seeds compact every few hundred appends; even seeds
  // sit below a full snapshot's size, so nearly every append compacts.
  config.journal_capacity_records = seed % 2 == 1 ? 1100 : 320;
  config.journal_max_unsynced = 8;
  if (bounded_l2p) {
    config.l2p_cache_entries = 16;
    config.l2p_entries_per_map_page = 8;
  }
  return config;
}

enum class MdiskState : uint8_t { kLive, kDraining, kDropped };

struct ModelMdisk {
  uint64_t first_lpo = 0;
  MdiskState state = MdiskState::kLive;
};

// Drives the same op sequence into every FTL it holds, mDisk lifecycle
// records included (as the minidisk layer appends them), and keeps each
// FTL's status for the last op so a caller can require they agree.
class OpDriver {
 public:
  explicit OpDriver(std::vector<Ftl*> ftls) : ftls_(std::move(ftls)) {}

  void CreateMdisk(unsigned level) {
    const uint64_t id = mdisks_.size();
    uint64_t first = 0;
    for (Ftl* ftl : ftls_) {
      first = ftl->ExtendLogicalSpace(kMdiskOPages);
      ftl->AppendJournalRecord(JournalRecord{JournalRecordType::kMdiskCreate,
                                             id, first, kMdiskOPages, level});
      ftl->SyncJournal();
    }
    mdisks_.push_back(ModelMdisk{first, MdiskState::kLive});
  }

  // Returns the mDisk's id, or -1 if there was none in `from`.
  int64_t Pick(Rng& rng, MdiskState from) const {
    std::vector<uint64_t> candidates;
    for (uint64_t id = 0; id < mdisks_.size(); ++id) {
      if (mdisks_[id].state == from) {
        candidates.push_back(id);
      }
    }
    if (candidates.empty()) {
      return -1;
    }
    return static_cast<int64_t>(candidates[rng.UniformU64(candidates.size())]);
  }

  void Drain(uint64_t id) {
    mdisks_[id].state = MdiskState::kDraining;
    for (Ftl* ftl : ftls_) {
      ftl->AppendJournalRecord(
          JournalRecord{JournalRecordType::kMdiskDrain, id, 0, 0, 0});
    }
  }

  void Drop(uint64_t id, bool forced) {
    mdisks_[id].state = MdiskState::kDropped;
    for (Ftl* ftl : ftls_) {
      for (uint64_t i = 0; i < kMdiskOPages; ++i) {
        ASSERT_TRUE(ftl->Trim(mdisks_[id].first_lpo + i).ok());
      }
      ftl->AppendJournalRecord(JournalRecord{
          JournalRecordType::kMdiskDrop, id, forced ? 1u : 0u, 0, 0});
    }
  }

  uint64_t LiveOPages() const {
    uint64_t n = 0;
    for (const ModelMdisk& md : mdisks_) {
      n += md.state != MdiskState::kDropped ? kMdiskOPages : 0;
    }
    return n;
  }

  // A logical page of a live or draining mDisk, or -1 if none.
  int64_t PickLpo(Rng& rng) const {
    std::vector<uint64_t> candidates;
    for (const ModelMdisk& md : mdisks_) {
      if (md.state != MdiskState::kDropped) {
        candidates.push_back(md.first_lpo);
      }
    }
    if (candidates.empty()) {
      return -1;
    }
    return static_cast<int64_t>(candidates[rng.UniformU64(candidates.size())] +
                                rng.UniformU64(kMdiskOPages));
  }

  // Runs one random step on every FTL; returns a label for failure output.
  std::string Step(Rng& rng) {
    const uint64_t op = rng.UniformU64(100);
    if (op < 55) {
      const int64_t lpo = PickLpo(rng);
      if (lpo >= 0) {
        Each([&](Ftl& f) { return f.Write(lpo).status(); });
      }
      return "write";
    }
    if (op < 63) {
      const int64_t lpo = PickLpo(rng);
      if (lpo >= 0) {
        Each([&](Ftl& f) { return f.Trim(lpo); });
      }
      return "trim";
    }
    if (op < 71) {
      const int64_t lpo = PickLpo(rng);
      if (lpo >= 0) {
        Each([&](Ftl& f) { return f.Read(lpo).status(); });
      }
      return "read";
    }
    if (op < 75) {
      Each([](Ftl& f) { return f.Flush(); });
      return "flush";
    }
    if (op < 78) {
      for (Ftl* ftl : ftls_) {
        ftl->SyncJournal();
      }
      return "sync";
    }
    if (op < 84) {
      // GC pressure: a burst of overwrites concentrated on one mDisk.
      const int64_t base = PickLpo(rng);
      if (base >= 0) {
        const uint64_t first = static_cast<uint64_t>(base) / kMdiskOPages *
                               kMdiskOPages;
        for (int i = 0; i < 48; ++i) {
          const uint64_t lpo = first + rng.UniformU64(kMdiskOPages);
          Each([&](Ftl& f) { return f.Write(lpo).status(); });
        }
      }
      return "gc-burst";
    }
    if (op < 91) {
      if (LiveOPages() < 640) {
        CreateMdisk(static_cast<unsigned>(rng.UniformU64(2)));
      }
      return "mdisk-create";
    }
    if (op < 95) {
      const int64_t id = Pick(rng, MdiskState::kLive);
      if (id >= 0) {
        Drain(static_cast<uint64_t>(id));
      }
      return "mdisk-drain";
    }
    const bool from_live = rng.Bernoulli(0.4);
    const int64_t id =
        Pick(rng, from_live ? MdiskState::kLive : MdiskState::kDraining);
    if (id >= 0) {
      Drop(static_cast<uint64_t>(id), /*forced=*/rng.Bernoulli(0.3));
    }
    return "mdisk-drop";
  }

  // Statuses of the last op, one per FTL.
  const std::vector<StatusCode>& last_codes() const { return codes_; }

 private:
  template <typename Op>
  void Each(Op op) {
    codes_.clear();
    for (Ftl* ftl : ftls_) {
      codes_.push_back(op(*ftl).code());
      ftl->TakeTransitions();  // as the minidisk layer drains them
    }
  }

  std::vector<Ftl*> ftls_;
  std::vector<ModelMdisk> mdisks_;
  std::vector<StatusCode> codes_;
};

struct PairedCase {
  bool bounded_l2p;
  uint64_t seed;
};

// Printed into each listed case name: the default would dump the struct's
// bytes, padding included.
void PrintTo(const PairedCase& c, std::ostream* os) {
  *os << (c.bounded_l2p ? "bounded" : "unbounded") << " seed " << c.seed;
}

class FtlJournalModePairedTest
    : public ::testing::TestWithParam<PairedCase> {};

TEST_P(FtlJournalModePairedTest, RecordlessPositionTracksRecordMode) {
  const PairedCase param = GetParam();
  FtlConfig config = ModelConfig(param.bounded_l2p, param.seed);
  FtlConfig recordless_config = config;
  recordless_config.crash_journal = false;
  Ftl with(config);
  Ftl without(recordless_config);
  FaultConfig faults;
  faults.program_fail = 0.004;
  faults.erase_fail = 0.01;
  FaultInjector with_faults(faults, param.seed);
  FaultInjector without_faults(faults, param.seed);
  with.SetFaultInjector(&with_faults);
  without.SetFaultInjector(&without_faults);
  ASSERT_TRUE(with.journal().keeps_records());
  ASSERT_FALSE(without.journal().keeps_records());

  OpDriver driver({&with, &without});
  for (int i = 0; i < 12; ++i) {
    driver.CreateMdisk(0);
  }
  Rng rng(param.seed * 0x9e3779b97f4a7c15ULL + 1);
  uint64_t map_flush_tails = 0;
  for (int step = 0; step < 2500; ++step) {
    const std::string op = driver.Step(rng);
    SCOPED_TRACE("step " + std::to_string(step) + " (" + op + ")");
    if (!driver.last_codes().empty()) {
      ASSERT_EQ(driver.last_codes()[0], driver.last_codes()[1]);
    }
    const FtlJournal& a = with.journal();
    const FtlJournal& b = without.journal();
    ASSERT_EQ(with.StateDigest(), without.StateDigest());
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.synced_count(), b.synced_count());
    ASSERT_EQ(a.appends(), b.appends());
    ASSERT_EQ(a.syncs(), b.syncs());
    ASSERT_EQ(a.compactions(), b.compactions());
    ASSERT_EQ(a.unsynced_map_flushes(), b.unsynced_map_flushes());
    ASSERT_EQ(a.records().size(), a.size());
    ASSERT_EQ(a.unsynced_map_flushes(), ScanUnsyncedMapFlushes(a));
    map_flush_tails += a.unsynced_map_flushes() > 0;
    if (step % 97 == 0) {
      ASSERT_TRUE(with.CheckInvariants().ok());
      ASSERT_TRUE(without.CheckInvariants().ok());
    }
  }
  // The sequence must have reached every mechanism it claims to cover.
  EXPECT_GT(with.journal().compactions(), 3u);
  EXPECT_GT(with.stats().gc_relocations, 0u);
  EXPECT_GT(with.stats().program_failures + with.stats().erase_failures, 0u);
  if (param.bounded_l2p) {
    EXPECT_GT(with.l2p_stats().map_writes, 0u);
    EXPECT_GT(map_flush_tails, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FtlJournalMode, FtlJournalModePairedTest,
    ::testing::Values(PairedCase{false, 1}, PairedCase{false, 2},
                      PairedCase{false, 3}, PairedCase{true, 1},
                      PairedCase{true, 2}, PairedCase{true, 3}),
    [](const ::testing::TestParamInfo<PairedCase>& case_info) {
      return std::string(case_info.param.bounded_l2p ? "bounded"
                                                     : "unbounded") +
             "_seed" + std::to_string(case_info.param.seed);
    });

// Record mode under torn tails: the counter stays equal to the tail scan
// across tears (which drop kMapFlush records) and replays, and the
// replayed FTL stays consistent.
TEST(FtlJournalModeTest, MapFlushCounterExactAcrossTears) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Ftl ftl(ModelConfig(/*bounded_l2p=*/true, seed));
    OpDriver driver({&ftl});
    for (int i = 0; i < 4; ++i) {
      driver.CreateMdisk(0);
    }
    Rng rng(seed + 100);
    uint64_t torn_map_flushes = 0;
    for (int step = 0; step < 1500; ++step) {
      driver.Step(rng);
      ASSERT_EQ(ftl.journal().unsynced_map_flushes(),
                ScanUnsyncedMapFlushes(ftl.journal()));
      if (rng.Bernoulli(0.03)) {
        const uint64_t before = ftl.journal().unsynced_map_flushes();
        ftl.SimulatePowerLoss(rng.UniformU64(ftl.journal().unsynced() + 1));
        torn_map_flushes += before - ftl.journal().unsynced_map_flushes();
        ASSERT_EQ(ftl.journal().unsynced_map_flushes(),
                  ScanUnsyncedMapFlushes(ftl.journal()));
        ASSERT_TRUE(ftl.Replay().ok()) << "step " << step;
        ASSERT_EQ(ftl.journal().unsynced_map_flushes(),
                  ScanUnsyncedMapFlushes(ftl.journal()));
      }
    }
    EXPECT_GT(ftl.journal_replays(), 0u);
    if (seed == 1) {
      EXPECT_GT(torn_map_flushes, 0u);
    }
  }
}

TEST(FtlJournalModeDeathTest, PowerLossOnRecordlessFtlAborts) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000);
  config.crash_journal = false;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(64);
  ASSERT_TRUE(ftl.Write(3).ok());
  EXPECT_DEATH(ftl.SimulatePowerLoss(0),
               "Ftl::SimulatePowerLoss.*crash_journal");
}

TEST(FtlJournalModeDeathTest, ReplayOnRecordlessFtlAborts) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000);
  config.crash_journal = false;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(64);
  EXPECT_DEATH((void)ftl.Replay(), "Ftl::Replay.*crash_journal");
}

TEST(FtlJournalModeDeathTest, RecordsOfRecordlessJournalAbort) {
  FtlJournal journal(/*capacity_records=*/16, /*keep_records=*/false);
  journal.Append(JournalRecord{JournalRecordType::kTrim, 1, 0, 0, 0});
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_DEATH(journal.records(), "FtlJournal::records.*crash_journal");
  EXPECT_DEATH(journal.TearTail(1), "FtlJournal::TearTail.*crash_journal");
}

TEST(FtlJournalModeDeathTest, SsdPowerLossOnRecordlessDeviceAborts) {
  SsdConfig config = testing_util::TestSsdConfig(
      SsdKind::kRegenS, TinyGeometry(), /*nominal_pec=*/1000);
  config.ftl.crash_journal = false;
  SsdDevice device(SsdKind::kRegenS, config);
  EXPECT_DEATH(device.Crash(SsdDevice::CrashKind::kPowerLoss),
               "Ftl::SimulatePowerLoss.*crash_journal");
}

}  // namespace
}  // namespace salamander
