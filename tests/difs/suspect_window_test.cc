// Suspect-window state machine, replication (DifsCluster) and erasure
// coding (EcCluster) flavors: a power-lost device holds a grace window open
// instead of triggering immediate re-replication; restart within the window
// reconciles its replicas/cells by journal generation, expiry falls back to
// the brick path, a mid-window brick closes the window, and grace = 0
// preserves the legacy declare-immediately behavior byte for byte.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "ecc/tiredness.h"
#include "faults/fault_injector.h"
#include "flash/wear_model.h"
#include "ssd/ssd_device.h"

namespace salamander {
namespace {

// Small cluster devices (32 blocks x 16 fPages x 4 oPages = 2048 oPages in
// 64-oPage mDisks) whose journals always tear at power loss, so every
// restart exercises the rollback path, not just the buffer drop.
FlashGeometry ClusterGeometry() {
  FlashGeometry g;
  g.channels = 1;
  g.dies_per_channel = 1;
  g.planes_per_die = 1;
  g.blocks_per_plane = 32;
  g.fpages_per_block = 16;
  return g;
}

std::function<std::unique_ptr<SsdDevice>(uint32_t)> DeviceFactory(
    uint64_t base_seed) {
  FPageEccGeometry ecc;
  const WearModelConfig wear = WearModel::Calibrate(
      ComputeTirednessLevel(ecc, 0).max_tolerable_rber,
      /*nominal_pec=*/200000);
  return [base_seed, wear, ecc](uint32_t index) {
    FaultConfig faults;
    faults.torn_journal_write = 1.0;
    faults.seed = base_seed + index;
    SsdConfig config =
        MakeSsdConfig(SsdKind::kRegenS, ClusterGeometry(), wear,
                      FlashLatencyConfig{}, ecc, base_seed + index * 17);
    config.minidisk.msize_opages = 64;
    config.faults = std::make_shared<FaultInjector>(faults, index);
    return std::make_unique<SsdDevice>(SsdKind::kRegenS, config);
  };
}

DifsConfig TestDifsConfig(uint64_t grace_ticks) {
  DifsConfig config;
  config.nodes = 5;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.5;
  config.seed = 20260805;
  config.maintenance_interval_ops = 8;  // one maintenance tick per 8 writes
  config.suspect_grace_ticks = grace_ticks;
  return config;
}

EcConfig TestEcConfig(uint32_t grace_ticks) {
  EcConfig config;
  config.nodes = 5;
  config.devices_per_node = 1;
  config.data_cells = 2;
  config.parity_cells = 2;
  config.cell_opages = 64;
  config.fill_fraction = 0.5;
  config.seed = 20260805;
  config.maintenance_interval_ops = 8;
  config.suspect_grace_ticks = grace_ticks;
  return config;
}

// Converged, invariant-clean cluster with zero data loss: the postcondition
// every suspect-window path must reach.
void ExpectDifsHealthy(DifsCluster& cluster) {
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
  EXPECT_EQ(cluster.pending_recovery_backlog(), 0u);
}

TEST(SuspectWindowTest, DifsRestartWithinGraceRevivesReplicas) {
  DifsCluster cluster(TestDifsConfig(/*grace_ticks=*/32),
                      DeviceFactory(101));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  const uint32_t victim = cluster.device_count() / 2;
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
  (void)cluster.StepWrites(96);  // 12 ticks, well inside the 32-tick grace
  const DifsStats& mid = cluster.stats();
  EXPECT_GE(mid.suspect_windows_started, 1u);
  // While suspect, the cluster must NOT have declared the replicas lost.
  EXPECT_EQ(mid.suspect_windows_expired, 0u);

  ASSERT_TRUE(cluster.device(victim).Restart().ok());
  (void)cluster.StepWrites(64);  // next maintenance tick reconciles
  cluster.ForceReconcile();

  const DifsStats& stats = cluster.stats();
  EXPECT_GE(stats.suspect_devices_returned, 1u);
  EXPECT_EQ(stats.suspect_windows_expired, 0u);
  // Reconciliation classified every replica on the returned device: fresh
  // ones revived, generation-stale ones pruned and re-replicated.
  EXPECT_GT(stats.suspect_replicas_revived + stats.suspect_replicas_stale,
            0u);
  ExpectDifsHealthy(cluster);
}

TEST(SuspectWindowTest, DifsGraceExpiryFallsBackToBrickPath) {
  DifsCluster cluster(TestDifsConfig(/*grace_ticks=*/2), DeviceFactory(202));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  cluster.device(cluster.device_count() / 2)
      .Crash(SsdDevice::CrashKind::kPowerLoss);
  (void)cluster.StepWrites(96);  // the 2-tick grace runs out
  cluster.ForceReconcile();

  const DifsStats& stats = cluster.stats();
  EXPECT_GE(stats.suspect_windows_started, 1u);
  EXPECT_GE(stats.suspect_windows_expired, 1u);
  EXPECT_EQ(stats.suspect_devices_returned, 0u);
  // Expiry re-replicated the dark device's replicas from survivors —
  // losses declared, then healed, with no chunk ever lost.
  EXPECT_GT(stats.replicas_lost, 0u);
  ExpectDifsHealthy(cluster);
}

TEST(SuspectWindowTest, DifsBrickUpgradeClosesWindow) {
  DifsCluster cluster(TestDifsConfig(/*grace_ticks=*/32), DeviceFactory(303));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  const uint32_t victim = cluster.device_count() / 2;
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
  (void)cluster.StepWrites(32);  // window opens...
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPermanent);
  (void)cluster.StepWrites(64);  // ...and the brick upgrade closes it
  cluster.ForceReconcile();

  const DifsStats& stats = cluster.stats();
  EXPECT_GE(stats.suspect_windows_started, 1u);
  EXPECT_EQ(stats.suspect_devices_returned, 0u);
  ExpectDifsHealthy(cluster);
}

TEST(SuspectWindowTest, DifsZeroGraceKeepsLegacyBehavior) {
  DifsCluster cluster(TestDifsConfig(/*grace_ticks=*/0), DeviceFactory(404));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  const uint32_t victim = cluster.device_count() / 2;
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
  (void)cluster.StepWrites(48);  // losses declared at the next tick
  ASSERT_TRUE(cluster.device(victim).Restart().ok());
  (void)cluster.StepWrites(64);  // capacity re-announced and reused
  cluster.ForceReconcile();

  const DifsStats& stats = cluster.stats();
  EXPECT_EQ(stats.suspect_windows_started, 0u);
  EXPECT_EQ(stats.suspect_devices_returned, 0u);
  EXPECT_GT(stats.replicas_lost, 0u);
  ExpectDifsHealthy(cluster);
}

TEST(SuspectWindowTest, EcRestartWithinGraceRevivesCells) {
  EcCluster cluster(TestEcConfig(/*grace_ticks=*/32), DeviceFactory(505));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  const uint32_t victim = cluster.device_count() / 2;
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
  (void)cluster.StepWrites(96);
  ASSERT_TRUE(cluster.device(victim).Restart().ok());
  (void)cluster.StepWrites(64);
  cluster.ForceReconcile();

  const EcStats& stats = cluster.stats();
  EXPECT_GE(stats.suspect_windows_started, 1u);
  EXPECT_GE(stats.suspect_devices_returned, 1u);
  EXPECT_EQ(stats.suspect_windows_expired, 0u);
  EXPECT_GT(stats.suspect_cells_revived + stats.suspect_cells_stale, 0u);
  EXPECT_EQ(stats.stripes_lost, 0u);
  EXPECT_EQ(cluster.stripes_fully_redundant(), cluster.total_stripes());
}

// ISSUE 9 satellite: during a suspect grace window the dark device still
// *holds* its cells (they are neither lost nor rebuilt), but it cannot serve
// I/O. A foreground read of a data cell on the dark device must be served
// degraded — reconstructed from the k healthy cells — not failed with the
// device's error.
TEST(SuspectWindowTest, EcReadLogicalAtDuringGraceServesDegraded) {
  EcCluster cluster(TestEcConfig(/*grace_ticks=*/64), DeviceFactory(707));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  const uint32_t victim = cluster.device_count() / 2;
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
  (void)cluster.StepWrites(16);  // a maintenance tick opens the window
  ASSERT_GE(cluster.stats().suspect_windows_started, 1u);
  ASSERT_EQ(cluster.stats().suspect_windows_expired, 0u);

  const uint64_t degraded_before = cluster.stats().degraded_reads;
  const uint64_t cells_lost_before = cluster.stats().cells_lost;
  uint64_t dark_data_reads = 0;
  uint64_t healthy_data_reads = 0;
  for (StripeId id = 0; id < cluster.total_stripes(); ++id) {
    for (uint32_t c = 0; c < cluster.data_cells(); ++c) {
      const CellLocation& cell = cluster.stripe(id).units[c];
      // Grace window: the dark device's cells are still live (held, not
      // declared lost) — that is exactly the state under test.
      ASSERT_TRUE(cell.live) << "stripe " << id << " cell " << c;
      const bool dark = cell.device == victim;
      SimDuration cost = 0;
      const Status read = cluster.ReadLogicalAt(id, c, 0, &cost);
      ASSERT_TRUE(read.ok())
          << "stripe " << id << " cell " << c << ": " << read.message();
      if (dark) {
        ++dark_data_reads;
        EXPECT_GT(cost, 0u) << "degraded read reports no service time";
      } else {
        ++healthy_data_reads;
      }
    }
  }
  ASSERT_GT(dark_data_reads, 0u) << "victim held no data cells; bad seed";
  ASSERT_GT(healthy_data_reads, 0u);
  // Every dark-cell read was served via reconstruction; healthy-cell reads
  // stayed on the direct path (read-repair can add a handful of degraded
  // serves, so this is a lower bound, not an equality).
  EXPECT_GE(cluster.stats().degraded_reads - degraded_before,
            dark_data_reads);
  // Serving reads degraded must not retire the held cells: the window is
  // still the device's to win.
  EXPECT_EQ(cluster.stats().cells_lost, cells_lost_before);
  EXPECT_EQ(cluster.stats().suspect_windows_expired, 0u);

  // The device returns within its window: held cells reconcile in place and
  // the cluster converges to full redundancy with zero stripe loss.
  ASSERT_TRUE(cluster.device(victim).Restart().ok());
  (void)cluster.StepWrites(32);
  cluster.ForceReconcile();
  EXPECT_GE(cluster.stats().suspect_devices_returned, 1u);
  EXPECT_EQ(cluster.stats().stripes_lost, 0u);
  EXPECT_EQ(cluster.stripes_fully_redundant(), cluster.total_stripes());
}

TEST(SuspectWindowTest, EcGraceExpiryRebuildsFromParity) {
  EcCluster cluster(TestEcConfig(/*grace_ticks=*/2), DeviceFactory(606));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  cluster.device(cluster.device_count() / 2)
      .Crash(SsdDevice::CrashKind::kPowerLoss);
  (void)cluster.StepWrites(96);
  cluster.ForceReconcile();

  const EcStats& stats = cluster.stats();
  EXPECT_GE(stats.suspect_windows_started, 1u);
  EXPECT_GE(stats.suspect_windows_expired, 1u);
  EXPECT_EQ(stats.suspect_devices_returned, 0u);
  // Expiry rebuilt the dark device's cells via RS decode; full redundancy
  // is restored with zero stripe loss.
  EXPECT_GT(stats.cells_rebuilt, 0u);
  EXPECT_EQ(stats.stripes_lost, 0u);
  EXPECT_EQ(cluster.stripes_fully_redundant(), cluster.total_stripes());
}

}  // namespace
}  // namespace salamander
