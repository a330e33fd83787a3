// Scheme digests: one 64-bit fingerprint of everything a replicated and an
// erasure-coded cluster can be observed to do over a fixed, seeded script.
//
// Each run bootstraps a cluster, drives a fixed sequence of StepWrites,
// StepReads, targeted ops, crashes and restarts, and ends with
// ForceReconcile. The digest then folds in every stats field, every group's
// id, lost flag, generation and checksum, every unit record (placement,
// liveness, generation and the scheme's freshness flags), the cluster's
// gauges, and the full metrics export. Two configurations per scheme:
//   - Faults: device faults (program failures, silent corruption, transient
//     unavailability, a lossy event channel) with a cluster injector (node
//     outages, lost drain acks) on devices that wear out into grace-window
//     drains, plus a permanent crash.
//   - Features: criticality-ordered recovery, domain-spread placement,
//     proactive health-driven drain, suspect windows around a power loss,
//     and queueing with hedged reads and the brownout guard.
// The expected values pin the clusters' behaviour: a refactor of the
// cluster code must reproduce them exactly. On a mismatch the test prints
// the actual digest; re-baseline only for a deliberate behaviour change.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/units.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "difs/placement.h"
#include "faults/fault_injector.h"
#include "sched/queueing.h"
#include "ssd/ssd_device.h"
#include "telemetry/metrics.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& text) {
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    Add(text.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class Script { kFaults, kFeatures };

// Device factory shared by both schemes. The faults script wears devices
// into grace-window drains under injected faults; the features script wears
// them fast enough for the health score to trip proactive drain.
ClusterCore::DeviceFactory Factory(Script script) {
  return [script](uint32_t index) {
    const bool faults = script == Script::kFaults;
    SsdConfig config =
        TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                      /*nominal_pec=*/faults ? 40 : 8,
                      /*seed=*/9100 + index * 31);
    if (faults) {
      config.minidisk.drain_before_decommission = true;
      config.minidisk.max_draining = 3;
      FaultConfig device_faults;
      device_faults.program_fail = 0.002;
      device_faults.read_corrupt = 0.002;
      device_faults.transient_unavailable = 0.03;
      device_faults.event_drop = 0.1;
      device_faults.event_duplicate = 0.1;
      device_faults.event_delay = 0.1;
      device_faults.seed = 4100;
      config.faults = std::make_shared<FaultInjector>(device_faults, index);
    }
    return std::make_unique<SsdDevice>(SsdKind::kShrinkS, config);
  };
}

// Fills the shared fields of either scheme's config for `script`.
void ConfigureShared(Script script, ClusterConfig* config) {
  config->devices_per_node = 1;
  config->fill_fraction = 0.5;
  if (script == Script::kFaults) {
    config->seed = 8080;
    config->maintenance_interval_ops = 32;
    FaultConfig cluster_faults;
    cluster_faults.node_outage = 0.2;
    cluster_faults.node_outage_ticks_max = 2;
    cluster_faults.ack_drain_lost = 0.3;
    cluster_faults.seed = 4200;
    config->faults =
        std::make_shared<FaultInjector>(cluster_faults, /*stream_id=*/1000);
    return;
  }
  config->seed = 9090;
  config->maintenance_interval_ops = 16;
  config->criticality_ordered_recovery = true;
  config->nodes_per_rack = 2;
  config->placement = MakeDomainSpreadPlacement(2);
  config->drain_health_threshold = 0.6;
  config->suspect_grace_ticks = 4;
  config->sched.queue_depth = 32;
  config->sched.arrival_interval_ns = 50 * kMicrosecond;
  config->sched.retry_jitter_ns = 2 * kMicrosecond;
  config->sched.hedge_threshold_ns = 30 * kMicrosecond;
  config->sched.slo_p99_ns = 300 * kMicrosecond;
  config->sched.brownout_window_ops = 32;
}

DifsCluster MakeDifs(Script script) {
  DifsConfig config;
  ConfigureShared(script, &config);
  config.nodes = 8;
  config.replication = 3;
  config.chunk_opages = 64;
  return DifsCluster(config, Factory(script));
}

EcCluster MakeEc(Script script) {
  EcConfig config;
  ConfigureShared(script, &config);
  config.nodes = 8;
  config.data_cells = 3;
  config.parity_cells = 2;
  config.cell_opages = 64;
  return EcCluster(config, Factory(script));
}

// Scheme adapters: the script and the digest are written once.
struct DifsOps {
  DifsCluster& c;
  uint64_t space() const { return c.logical_opages(); }
  void Write(uint64_t addr) {
    (void)c.WriteChunkAt(addr / c.chunk_opages(), addr % c.chunk_opages());
  }
  void Read(uint64_t addr) {
    (void)c.ReadChunkAt(addr / c.chunk_opages(), addr % c.chunk_opages());
  }
  void Scrub(uint64_t budget) { (void)c.ScrubStep(budget); }
};

struct EcOps {
  EcCluster& c;
  uint64_t space() const { return c.logical_opages(); }
  void Split(uint64_t addr, StripeId* stripe, uint32_t* cell,
             uint64_t* offset) const {
    const uint64_t cell_index = addr / c.cell_opages();
    *stripe = cell_index / c.data_cells();
    *cell = static_cast<uint32_t>(cell_index % c.data_cells());
    *offset = addr % c.cell_opages();
  }
  void Write(uint64_t addr) {
    StripeId stripe;
    uint32_t cell;
    uint64_t offset;
    Split(addr, &stripe, &cell, &offset);
    (void)c.WriteLogicalAt(stripe, cell, offset);
  }
  void Read(uint64_t addr) {
    StripeId stripe;
    uint32_t cell;
    uint64_t offset;
    Split(addr, &stripe, &cell, &offset);
    (void)c.ReadLogicalAt(stripe, cell, offset);
  }
  void Scrub(uint64_t) {}  // EC has no background scrub
};

// The fixed script. Targeted ops walk the logical space with a stride coprime
// to the unit size, so they touch many groups and offsets.
template <typename Cluster, typename Ops>
void RunScript(Script script, Cluster& cluster, Ops ops) {
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t space = ops.space();
  ASSERT_GT(space, 0u);
  uint64_t addr = 0;
  const auto targeted = [&](int n) {
    for (int i = 0; i < n; ++i) {
      addr = (addr + 977) % space;
      if (i % 3 == 0) {
        ops.Read(addr);
      } else {
        ops.Write(addr);
      }
    }
  };
  const uint32_t victim = 3;
  for (int round = 0; round < 40; ++round) {
    (void)cluster.StepWrites(script == Script::kFeatures ? 512 : 96);
    (void)cluster.StepReads(64);
    targeted(48);
    ops.Scrub(64);
    if (script == Script::kFaults && round == 20) {
      cluster.device(1).Crash(SsdDevice::CrashKind::kPermanent);
    }
    if (script == Script::kFeatures) {
      if (round == 12) {
        // Power loss, one maintenance tick in the dark, then a restart
        // inside the grace window.
        cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
        (void)cluster.StepWrites(24);
        (void)cluster.device(victim).Restart();
      } else if (round == 24) {
        cluster.device(6).Crash(SsdDevice::CrashKind::kPowerLoss);
      } else if (round == 30) {
        cluster.device(0).Crash(SsdDevice::CrashKind::kPermanent);
      }
    }
  }
  cluster.ForceReconcile();
}

void AddSharedStats(const ClusterStats& s, Digest* d) {
  for (uint64_t v :
       {s.drains_started, s.drains_acked, s.acks_lost, s.node_outages,
        s.outage_write_skips, s.maintenance_ticks, s.resync_passes,
        s.resync_repairs, s.integrity_detected, s.integrity_marked_bad,
        s.suspect_windows_started, s.suspect_windows_expired,
        s.suspect_devices_returned, s.sched_read_sheds, s.sched_write_sheds,
        s.sched_wait_ns, s.sched_hedged_reads, s.sched_hedge_wins,
        s.placement_domain_rejections, s.placement_domain_fallbacks,
        s.drain_devices_flagged, s.drain_devices_completed,
        s.drain_opage_reads, s.drain_opage_writes, s.drain_migrations_parked,
        s.drain_brownout_deferrals, s.drain_sched_sheds}) {
    d->Add(v);
  }
}

template <typename Cluster>
void AddClusterState(const Cluster& cluster, Digest* d) {
  d->Add(cluster.alive_devices());
  d->Add(cluster.free_slots());
  d->Add(cluster.live_capacity_bytes());
  d->Add(cluster.total_bytes_written());
  d->Add(cluster.sched_clock_ns());
  d->Add(static_cast<uint64_t>(static_cast<int64_t>(cluster.outage_node())));
  for (uint32_t i = 0; i < cluster.device_count(); ++i) {
    d->Add(cluster.device(i).bytes_written());
    d->Add(cluster.device(i).failed() ? 1 : 0);
  }
  MetricRegistry registry;
  cluster.CollectMetrics(registry);
  d->Add(registry.ToJson());
}

uint64_t DifsDigest(const DifsCluster& cluster) {
  Digest d;
  const DifsStats& s = cluster.stats();
  AddSharedStats(s, &d);
  for (uint64_t v :
       {s.foreground_opage_writes, s.recovery_opage_writes,
        s.recovery_opage_reads, s.replicas_recovered, s.replicas_lost,
        s.drain_window_losses, s.chunks_lost, s.recovery_deferred,
        s.uncorrectable_reads, s.scrub_repairs, s.max_wave_recovery_opages,
        s.recovery_waves, s.transient_retries, s.transient_giveups,
        s.backoff_ns, s.integrity_retained_last_copies,
        s.integrity_survivor_reads, s.scrub_opage_reads, s.scrub_detected,
        s.scrub_passes, s.sched_recovery_sheds, s.sched_scrub_sheds,
        s.brownout_scrub_deferrals, s.brownout_recovery_deferrals,
        s.drain_replicas_migrated, s.suspect_replicas_revived,
        s.suspect_replicas_stale}) {
    d.Add(v);
  }
  for (ChunkId id = 0; id < cluster.total_chunks(); ++id) {
    const Chunk& chunk = cluster.chunk(id);
    d.Add(chunk.id);
    d.Add(chunk.lost ? 1 : 0);
    d.Add(chunk.generation);
    d.Add(chunk.checksum);
    d.Add(chunk.units.size());
    for (const ReplicaLocation& r : chunk.units) {
      d.Add(r.device);
      d.Add(r.mdisk);
      d.Add(r.slot);
      d.Add(r.live ? 1 : 0);
      d.Add(r.draining ? 1 : 0);
      d.Add(r.generation);
    }
  }
  d.Add(cluster.chunks_waiting_capacity());
  d.Add(cluster.pending_recovery_backlog());
  AddClusterState(cluster, &d);
  return d.value();
}

uint64_t EcDigest(const EcCluster& cluster) {
  Digest d;
  const EcStats& s = cluster.stats();
  AddSharedStats(s, &d);
  for (uint64_t v :
       {s.foreground_logical_writes, s.foreground_device_writes,
        s.rebuild_opage_reads, s.rebuild_opage_writes, s.cells_lost,
        s.cells_rebuilt, s.degraded_reads, s.stripes_lost, s.rebuild_deferred,
        s.integrity_retained_cells, s.suspect_cells_revived,
        s.suspect_cells_stale, s.sched_rebuild_sheds,
        s.brownout_rebuild_deferrals, s.drain_cells_migrated}) {
    d.Add(v);
  }
  for (StripeId id = 0; id < cluster.total_stripes(); ++id) {
    const Stripe& stripe = cluster.stripe(id);
    d.Add(stripe.id);
    d.Add(stripe.lost ? 1 : 0);
    d.Add(stripe.generation);
    d.Add(stripe.checksum);
    d.Add(stripe.units.size());
    for (uint32_t c = 0; c < stripe.units.size(); ++c) {
      const CellLocation& cell = stripe.units[c];
      d.Add(c);
      d.Add(cell.device);
      d.Add(cell.mdisk);
      d.Add(cell.slot);
      d.Add(cell.live ? 1 : 0);
      d.Add(cell.generation);
      d.Add(cell.stale ? 1 : 0);
    }
  }
  AddClusterState(cluster, &d);
  return d.value();
}

void ExpectDigest(uint64_t actual, uint64_t expected, const char* name) {
  EXPECT_EQ(actual, expected)
      << name << ": actual digest 0x" << std::hex << actual
      << " (re-baseline only for a deliberate behaviour change)";
}

// Each test also checks that its script reached the paths it is meant to
// pin: a digest over a script that never repairs, drains or hedges pins
// nothing about those paths.

TEST(ClusterSchemeDigestTest, DifsFaults) {
  DifsCluster cluster = MakeDifs(Script::kFaults);
  RunScript(Script::kFaults, cluster, DifsOps{cluster});
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  const DifsStats& s = cluster.stats();
  EXPECT_GT(s.replicas_recovered, 0u);
  EXPECT_GT(s.drains_started, 0u);
  EXPECT_GT(s.acks_lost, 0u);
  EXPECT_GT(s.node_outages, 0u);
  EXPECT_GT(s.integrity_detected, 0u);
  EXPECT_GT(s.transient_retries, 0u);
  ExpectDigest(DifsDigest(cluster), 0x786ce10e2f143d59ULL, "difs/faults");
}

TEST(ClusterSchemeDigestTest, DifsFeatures) {
  DifsCluster cluster = MakeDifs(Script::kFeatures);
  RunScript(Script::kFeatures, cluster, DifsOps{cluster});
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  const DifsStats& s = cluster.stats();
  EXPECT_GT(s.replicas_recovered, 0u);
  EXPECT_GT(s.drain_replicas_migrated, 0u);
  EXPECT_GT(s.suspect_devices_returned, 0u);
  EXPECT_GT(s.sched_hedged_reads, 0u);
  EXPECT_GT(s.brownout_recovery_deferrals, 0u);
  ExpectDigest(DifsDigest(cluster), 0xf2d36ececbf6ea3bULL, "difs/features");
}

TEST(ClusterSchemeDigestTest, EcFaults) {
  EcCluster cluster = MakeEc(Script::kFaults);
  RunScript(Script::kFaults, cluster, EcOps{cluster});
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  const EcStats& s = cluster.stats();
  EXPECT_GT(s.cells_rebuilt, 0u);
  EXPECT_GT(s.drains_started, 0u);
  EXPECT_GT(s.node_outages, 0u);
  EXPECT_GT(s.integrity_detected, 0u);
  ExpectDigest(EcDigest(cluster), 0x2dcb3f03b9b7a608ULL, "ec/faults");
}

TEST(ClusterSchemeDigestTest, EcFeatures) {
  EcCluster cluster = MakeEc(Script::kFeatures);
  RunScript(Script::kFeatures, cluster, EcOps{cluster});
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  const EcStats& s = cluster.stats();
  EXPECT_GT(s.cells_rebuilt, 0u);
  EXPECT_GT(s.drain_cells_migrated, 0u);
  EXPECT_GT(s.suspect_devices_returned, 0u);
  EXPECT_GT(s.sched_hedged_reads, 0u);
  EXPECT_GT(s.brownout_rebuild_deferrals, 0u);
  ExpectDigest(EcDigest(cluster), 0xb6e3fc0aaa6960f3ULL, "ec/features");
}

}  // namespace
}  // namespace salamander
