// diFS read-path and placement-topology tests.
#include <gtest/gtest.h>

#include <set>

#include "difs/cluster.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

std::function<std::unique_ptr<SsdDevice>(uint32_t)> Factory(
    SsdKind kind, uint32_t nominal_pec, double read_disturb = 0.0) {
  return [kind, nominal_pec, read_disturb](uint32_t index) {
    SsdConfig config = TestSsdConfig(kind, TinyGeometry(), nominal_pec,
                                     /*seed=*/4000 + index * 13);
    config.ftl.wear.read_disturb_per_read = read_disturb;
    return std::make_unique<SsdDevice>(kind, config);
  };
}

TEST(DifsReadsTest, ReadsSpreadAcrossReplicas) {
  DifsConfig config;
  config.nodes = 4;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.4;
  config.seed = 11;
  DifsCluster cluster(config, Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.StepReads(3000).ok());
  // Every device hosting replicas should have served some reads.
  uint32_t devices_with_reads = 0;
  for (uint32_t d = 0; d < cluster.device_count(); ++d) {
    if (cluster.device(d).ftl().stats().host_reads > 0) {
      ++devices_with_reads;
    }
  }
  EXPECT_GE(devices_with_reads, 3u);
  EXPECT_EQ(cluster.stats().uncorrectable_reads, 0u);
}

TEST(DifsReadsTest, ReadDisturbTriggersScrubRepairs) {
  // Pathological read disturb: hammering reads without refreshing pages must
  // eventually produce uncorrectable reads, which the diFS scrubs (rewrites).
  DifsConfig config;
  config.nodes = 4;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.3;
  config.seed = 21;
  DifsCluster cluster(config,
                      Factory(SsdKind::kShrinkS, 1000000,
                              /*read_disturb=*/2e-6));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t rounds = 0;
  while (cluster.stats().uncorrectable_reads == 0 && rounds < 200) {
    ASSERT_TRUE(cluster.StepReads(5000).ok());
    ++rounds;
  }
  EXPECT_GT(cluster.stats().uncorrectable_reads, 0u);
  EXPECT_GT(cluster.stats().scrub_repairs, 0u);
  // Scrubbing restores readability: data is never lost to read disturb.
  EXPECT_EQ(cluster.chunks_lost(), 0u);
}

TEST(DifsPlacementTest, MultiDeviceNodesStillPlaceNodeDisjoint) {
  DifsConfig config;
  config.nodes = 3;
  config.devices_per_node = 2;  // 6 devices, 3 failure domains
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.4;
  config.seed = 31;
  DifsCluster cluster(config, Factory(SsdKind::kShrinkS, 1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_GT(cluster.total_chunks(), 0u);
  for (ChunkId c = 0; c < cluster.total_chunks(); ++c) {
    const Chunk& chunk = cluster.chunk(c);
    std::set<uint32_t> nodes;
    for (const ReplicaLocation& replica : chunk.units) {
      nodes.insert(cluster.node_of_device(replica.device));
    }
    EXPECT_EQ(nodes.size(), 3u) << "chunk " << c << " shares a node";
  }
}

TEST(DifsPlacementTest, RecoveryKeepsNodeDisjointness) {
  DifsConfig config;
  config.nodes = 5;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.4;
  config.seed = 41;
  DifsCluster cluster(config, Factory(SsdKind::kShrinkS, /*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t steps = 0;
  while (cluster.stats().replicas_recovered < 5 && steps < 400000) {
    ASSERT_TRUE(cluster.StepWrites(1000).ok());
    steps += 1000;
  }
  ASSERT_GT(cluster.stats().replicas_recovered, 0u);
  for (ChunkId c = 0; c < cluster.total_chunks(); ++c) {
    const Chunk& chunk = cluster.chunk(c);
    if (chunk.lost) {
      continue;
    }
    std::set<uint32_t> nodes;
    uint32_t live = 0;
    for (const ReplicaLocation& replica : chunk.units) {
      if (replica.live && !replica.draining) {
        nodes.insert(cluster.node_of_device(replica.device));
        ++live;
      }
    }
    EXPECT_EQ(nodes.size(), live) << "chunk " << c << " node collision";
  }
}

TEST(DifsReadsTest, CapacityAccountingMatchesDevices) {
  DifsConfig config;
  config.nodes = 4;
  config.replication = 3;
  config.chunk_opages = 64;
  config.seed = 51;
  DifsCluster cluster(config, Factory(SsdKind::kRegenS, 1000000));
  uint64_t expected = 0;
  for (uint32_t d = 0; d < cluster.device_count(); ++d) {
    expected += cluster.device(d).live_capacity_bytes();
  }
  EXPECT_EQ(cluster.live_capacity_bytes(), expected);
  EXPECT_EQ(cluster.initial_capacity_bytes(), expected);
}

}  // namespace
}  // namespace salamander
