// End-to-end grace-period protocol: device drains -> diFS re-replicates
// (possibly reading from the draining mDisk itself) -> diFS acks -> device
// reclaims.
#include <gtest/gtest.h>

#include <memory>

#include "difs/cluster.h"
#include "faults/fault_injector.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

std::function<std::unique_ptr<SsdDevice>(uint32_t)> DrainFactory(
    uint32_t nominal_pec) {
  return [nominal_pec](uint32_t index) {
    SsdConfig config = TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                                     nominal_pec, /*seed=*/3000 + index * 11);
    config.minidisk.drain_before_decommission = true;
    config.minidisk.max_draining = 3;
    return std::make_unique<SsdDevice>(SsdKind::kShrinkS, config);
  };
}

DifsConfig DrainClusterConfig() {
  DifsConfig config;
  config.nodes = 5;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.5;
  config.seed = 808;
  return config;
}

TEST(DrainProtocolTest, DrainsAreAckedAfterReReplication) {
  DifsCluster cluster(DrainClusterConfig(), DrainFactory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t steps = 0;
  while (cluster.stats().drains_acked == 0 && steps < 600000 &&
         cluster.alive_devices() >= 3) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
  }
  const DifsStats& stats = cluster.stats();
  ASSERT_GT(stats.drains_started, 0u) << "no drain ever started";
  EXPECT_GT(stats.drains_acked, 0u) << "diFS never acked a drain";
  // The grace window plus spare capacity should keep chunks safe.
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
}

TEST(DrainProtocolTest, GracefulDrainsCauseNoDataLoss) {
  // As long as no drain window is force-closed, the grace protocol must not
  // lose chunks: every retiring mDisk stays readable until its chunks are
  // re-replicated.
  DifsCluster cluster(DrainClusterConfig(), DrainFactory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  for (uint64_t steps = 0; steps < 120000 && cluster.alive_devices() >= 3;
       steps += 1000) {
    ASSERT_TRUE(cluster.StepWrites(1000).ok());
    if (cluster.stats().drain_window_losses > 0) {
      break;  // forced drains may legitimately lose the race
    }
    ASSERT_EQ(cluster.chunks_lost(), 0u)
        << "data loss without any forced drain";
  }
}

TEST(DrainProtocolTest, DrainedReadsServeDuringGraceWindow) {
  DifsCluster cluster(DrainClusterConfig(), DrainFactory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t steps = 0;
  while (cluster.stats().drains_started == 0 && steps < 600000 &&
         cluster.alive_devices() >= 3) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
  }
  ASSERT_GT(cluster.stats().drains_started, 0u);
  // Reads across the cluster must keep succeeding.
  ASSERT_TRUE(cluster.StepReads(500).ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
}

// Every AckDrain is lost on the way: no drain may count as acked, whether
// the draining mDisk still held replicas or none at all (acked on the spot),
// and however often resync re-sends the ack.
TEST(DrainProtocolTest, LostAcksAreNeverCountedAsAcked) {
  DifsConfig config = DrainClusterConfig();
  FaultConfig cluster_faults;
  cluster_faults.ack_drain_lost = 1.0;
  config.faults =
      std::make_shared<FaultInjector>(cluster_faults, /*stream_id=*/1000);
  DifsCluster cluster(config, DrainFactory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  for (uint64_t steps = 0; steps < 60000 && cluster.alive_devices() >= 3 &&
                           cluster.stats().acks_lost < 8;
       steps += 500) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
  }
  const DifsStats& stats = cluster.stats();
  ASSERT_GT(stats.drains_started, 0u) << "no drain ever started";
  ASSERT_GT(stats.acks_lost, 0u);
  EXPECT_EQ(stats.drains_acked, 0u);
}

}  // namespace
}  // namespace salamander
