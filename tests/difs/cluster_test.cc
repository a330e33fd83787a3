#include "difs/cluster.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

std::function<std::unique_ptr<SsdDevice>(uint32_t)> Factory(
    SsdKind kind, uint32_t nominal_pec) {
  return [kind, nominal_pec](uint32_t index) {
    return std::make_unique<SsdDevice>(
        kind, TestSsdConfig(kind, TinyGeometry(), nominal_pec,
                            /*seed=*/1000 + index));
  };
}

DifsConfig TestConfig(uint32_t nodes = 4) {
  DifsConfig config;
  config.nodes = nodes;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 64;  // == the test mDisk size
  config.fill_fraction = 0.5;
  config.seed = 99;
  return config;
}

TEST(DifsClusterTest, ConstructionRegistersAllMinidisks) {
  DifsCluster cluster(TestConfig(), Factory(SsdKind::kShrinkS, 1000000));
  EXPECT_EQ(cluster.device_count(), 4u);
  // 4 devices x 12 mDisks, 1 slot each.
  EXPECT_EQ(cluster.free_slots(), 48u);
  EXPECT_EQ(cluster.alive_devices(), 4u);
}

TEST(DifsClusterTest, BootstrapPlacesOnDistinctNodes) {
  DifsCluster cluster(TestConfig(), Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  // 48 slots * 0.5 / 3 = 8 chunks.
  EXPECT_EQ(cluster.total_chunks(), 8u);
  EXPECT_EQ(cluster.chunks_fully_replicated(), 8u);
  for (ChunkId c = 0; c < cluster.total_chunks(); ++c) {
    const Chunk& chunk = cluster.chunk(c);
    ASSERT_EQ(chunk.units.size(), 3u);
    std::set<uint32_t> nodes;
    for (const ReplicaLocation& replica : chunk.units) {
      nodes.insert(cluster.node_of_device(replica.device));
    }
    EXPECT_EQ(nodes.size(), 3u) << "chunk " << c << " not node-disjoint";
  }
}

TEST(DifsClusterTest, BootstrapWritesAllReplicas) {
  DifsCluster cluster(TestConfig(), Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  // 8 chunks x 3 replicas x 64 oPages.
  EXPECT_EQ(cluster.total_bytes_written(), 8u * 3 * 64 * 4096);
}

TEST(DifsClusterTest, StepsRequireBootstrap) {
  DifsCluster cluster(TestConfig(), Factory(SsdKind::kShrinkS, 1000000));
  EXPECT_EQ(cluster.StepWrites(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.StepReads(1).code(), StatusCode::kFailedPrecondition);
}

TEST(DifsClusterTest, ForegroundWritesFanOutToAllReplicas) {
  DifsCluster cluster(TestConfig(), Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t before = cluster.total_bytes_written();
  ASSERT_TRUE(cluster.StepWrites(100).ok());
  EXPECT_EQ(cluster.stats().foreground_opage_writes, 100u);
  // Each logical write lands on 3 replicas.
  EXPECT_EQ(cluster.total_bytes_written() - before, 100u * 3 * 4096);
}

TEST(DifsClusterTest, ReadsSucceedOnHealthyCluster) {
  DifsCluster cluster(TestConfig(), Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.StepReads(200).ok());
  EXPECT_EQ(cluster.stats().uncorrectable_reads, 0u);
}

// Ages the cluster until at least `target` replica losses occur.
void AgeCluster(DifsCluster& cluster, uint64_t target_losses,
                uint64_t max_steps) {
  uint64_t steps = 0;
  while (cluster.stats().replicas_lost < target_losses &&
         steps < max_steps && cluster.alive_devices() > 0) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
  }
}

TEST(DifsClusterTest, RecoveryRestoresReplicationAfterWearFailures) {
  DifsCluster cluster(TestConfig(/*nodes=*/5),
                      Factory(SsdKind::kShrinkS, /*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  AgeCluster(cluster, 3, 400000);
  ASSERT_GT(cluster.stats().replicas_lost, 0u);
  EXPECT_GT(cluster.stats().replicas_recovered, 0u);
  EXPECT_GT(cluster.stats().recovery_opage_writes, 0u);
  // With spare capacity, every surviving chunk should be fully replicated.
  EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
  EXPECT_EQ(cluster.chunks_lost(), 0u);
}

TEST(DifsClusterTest, RecoveryTrafficProportionalToLostReplicas) {
  DifsCluster cluster(TestConfig(/*nodes=*/5),
                      Factory(SsdKind::kShrinkS, /*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  AgeCluster(cluster, 3, 400000);
  const auto& stats = cluster.stats();
  // Each successful recovery writes exactly one chunk (64 oPages).
  EXPECT_EQ(stats.recovery_opage_writes % 64, 0u);
  EXPECT_EQ(stats.recovery_opage_writes / 64, stats.replicas_recovered);
}

TEST(DifsClusterTest, BaselineBrickCausesMassRecovery) {
  // Baseline devices host many chunk slots in one volume; a brick loses all
  // of them at once — the Fig. 1(a) whole-device failure.
  DifsConfig config = TestConfig(/*nodes=*/5);
  config.fill_fraction = 0.3;
  DifsCluster cluster(config, Factory(SsdKind::kBaseline, /*nominal_pec=*/20));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint32_t devices_before = cluster.alive_devices();
  uint64_t steps = 0;
  while (cluster.alive_devices() == devices_before && steps < 500000) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
  }
  ASSERT_LT(cluster.alive_devices(), devices_before);
  // All replicas of the dead device were lost in one burst; survivors
  // should have been re-replicated.
  EXPECT_GT(cluster.stats().replicas_lost, 1u);
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
}

TEST(DifsClusterTest, DeterministicForSameSeed) {
  auto run = [] {
    DifsCluster cluster(TestConfig(/*nodes=*/5),
                        Factory(SsdKind::kShrinkS, 25));
    EXPECT_TRUE(cluster.Bootstrap().ok());
    EXPECT_TRUE(cluster.StepWrites(50000).ok());
    return std::make_tuple(cluster.stats().replicas_lost,
                           cluster.stats().replicas_recovered,
                           cluster.stats().recovery_opage_writes,
                           cluster.total_bytes_written());
  };
  EXPECT_EQ(run(), run());
}

TEST(DifsClusterTest, RegenSRegenerationAddsPlacementCapacity) {
  DifsConfig config = TestConfig(/*nodes=*/5);
  DifsCluster cluster(config, Factory(SsdKind::kRegenS, /*nominal_pec=*/20));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t regenerations = 0;
  uint64_t steps = 0;
  while (regenerations == 0 && steps < 600000 &&
         cluster.alive_devices() > 0) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
    regenerations = 0;
    for (uint32_t d = 0; d < cluster.device_count(); ++d) {
      regenerations += cluster.device(d).manager().regenerated_total();
    }
  }
  EXPECT_GT(regenerations, 0u);
}

// ---------------------------------------------------------------------------
// Tick scheduling — the discrete-event hooks behind MaybeRunMaintenance
// ---------------------------------------------------------------------------

TEST(DifsClusterTest, MaintenanceDormantWithoutInjectors) {
  DifsCluster cluster(TestConfig(), Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_TRUE(cluster.MaintenanceDormant());
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), UINT64_MAX);
  // Dormant means dormant: foreground traffic never wakes maintenance.
  ASSERT_TRUE(cluster.StepWrites(600).ok());
  EXPECT_EQ(cluster.stats().maintenance_ticks, 0u);
}

TEST(DifsClusterTest, ExplicitIntervalSchedulesTicks) {
  DifsConfig config = TestConfig();
  config.maintenance_interval_ops = 8;
  DifsCluster cluster(config, Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_FALSE(cluster.MaintenanceDormant());
  // A fresh cluster is a full interval away from its first tick; the
  // countdown shrinks as foreground ops land and the tick fires on schedule.
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), 8u);
  ASSERT_TRUE(cluster.StepWrites(3).ok());
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), 5u);
  const uint64_t before = cluster.stats().maintenance_ticks;
  ASSERT_TRUE(cluster.StepWrites(5).ok());
  EXPECT_EQ(cluster.stats().maintenance_ticks, before + 1);
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), 8u);
}

TEST(DifsClusterTest, ClusterInjectorWakesAutoMaintenance) {
  DifsConfig config = TestConfig();
  config.faults = std::make_shared<FaultInjector>(FaultConfig{}, 7);
  DifsCluster cluster(config, Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_FALSE(cluster.MaintenanceDormant());
  // Auto interval is 256 ops.
  EXPECT_LE(cluster.OpsUntilMaintenanceTick(), 256u);
}

}  // namespace
}  // namespace salamander
