// Which fleet devices keep their journal's records (FtlConfig::crash_journal).
//
// FleetSim derives it per device: only a device with a FaultInjector or in a
// fleet with rack power-loss events can lose power, so only those keep
// records; every other device keeps the journal's position alone. The suite
// pins both sides: crash-free devices hold no records yet evolve exactly as
// record-keeping ones, and rack power loss alone still restarts devices from
// a replayed journal.
//
// Test names carry the FleetJournalMode prefix so the TSan CI job selects
// them alongside the other fleet determinism suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fleet/fleet_sim.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

FleetConfig JournalFleet() {
  FleetConfig config;
  config.kind = SsdKind::kRegenS;
  config.devices = 6;
  config.geometry = testing_util::TinyGeometry();
  config.ecc = FPageEccGeometry{};
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/30);
  config.msize_opages = 64;
  config.dwpd = 2.0;
  config.dwpd_sigma = 0.3;
  config.afr = 0.02;
  config.days = 90;
  config.sample_every_days = 5;
  config.seed = 777;
  config.threads = 2;
  return config;
}

TEST(FleetJournalModeTest, CrashFreeDevicesKeepOnlyThePosition) {
  FleetSim sim(JournalFleet());
  sim.Run();
  for (uint32_t i = 0; i < 6; ++i) {
    const FtlJournal& journal = sim.device(i).ftl().journal();
    EXPECT_FALSE(journal.keeps_records()) << "device " << i;
    EXPECT_GT(journal.size(), 0u) << "device " << i;
    EXPECT_GT(journal.compactions(), 0u) << "device " << i;
  }
}

// A zero-probability injector draws nothing, so the only difference between
// these fleets is that its devices keep their records.
TEST(FleetJournalModeTest, RecordlessFleetMatchesRecordKeepingFleet) {
  FleetConfig recordless = JournalFleet();
  FleetConfig recording = recordless;
  recording.inject_device_faults = true;
  FleetSim a(recordless);
  FleetSim b(recording);
  EXPECT_EQ(a.Run(), b.Run());
  EXPECT_EQ(a.DeviceDigests(), b.DeviceDigests());
  for (uint32_t i = 0; i < 6; ++i) {
    const FtlJournal& kept = b.device(i).ftl().journal();
    const FtlJournal& counted = a.device(i).ftl().journal();
    ASSERT_TRUE(kept.keeps_records());
    EXPECT_EQ(kept.records().size(), kept.size());
    EXPECT_EQ(counted.size(), kept.size()) << "device " << i;
    EXPECT_EQ(counted.syncs(), kept.syncs()) << "device " << i;
    EXPECT_EQ(counted.compactions(), kept.compactions()) << "device " << i;
  }
}

// Rack events crash devices that carry no injector: they must keep records
// and come back through journal replay.
TEST(FleetJournalModeTest, RackPowerLossAloneRestartsFromReplayedJournal) {
  FleetConfig config = JournalFleet();
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/100000);
  config.afr = 0.0;
  config.domain.devices_per_rack = 3;
  config.domain.rack_power_loss_per_day = 0.05;
  config.domain.rack_restart_days = 1;
  ASSERT_FALSE(config.inject_device_faults);
  ASSERT_EQ(config.power_loss_per_device_day, 0.0);
  FleetSim sim(config);
  sim.Run();
  ASSERT_GT(sim.rack_crashes_total(), 0u) << "rate too low; no rack event";
  EXPECT_GT(sim.restarts_total(), 0u);
  uint64_t replays = 0;
  for (uint32_t i = 0; i < 6; ++i) {
    const Ftl& ftl = sim.device(i).ftl();
    EXPECT_TRUE(ftl.journal().keeps_records()) << "device " << i;
    replays += ftl.journal_replays();
  }
  EXPECT_EQ(replays, sim.restarts_total() + sim.restart_failures_total());
}

}  // namespace
}  // namespace salamander
