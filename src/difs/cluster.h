// Distributed replicated storage simulator (the paper's diFS).
//
// The cluster stores fixed-size *chunks*, each replicated on R distinct
// nodes. A chunk replica occupies one slot of one mDisk: on Salamander
// devices mSize == chunk size so a replica maps 1:1 onto an mDisk (the
// paper's design); on a baseline device the single monolithic "mDisk" hosts
// many slots, so one brick loses them all at once — exactly the failure-
// granularity contrast of Fig. 1.
//
// The cluster consumes each device's MinidiskEvent stream:
//   kDecommissioned -> replicas on that mDisk are lost; the recovery
//                      scheduler re-replicates each affected chunk from a
//                      survivor onto a node not already hosting it.
//   kCreated        -> new placement capacity (RegenS regeneration).
//
// Recovery performs *real* device I/O: the copy reads the survivor and
// writes the target, so recovery traffic wears flash exactly as §4.3
// discusses. Simulation "time" is driven by bytes written (constant-rate
// workload assumption); the fleet layer converts to wall-clock via DWPD.
#ifndef SALAMANDER_DIFS_CLUSTER_H_
#define SALAMANDER_DIFS_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/minidisk.h"
#include "difs/cluster_core.h"
#include "integrity/scrub_cursor.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace salamander {

using ChunkId = uint64_t;

// Replication-specific config; the fields both schemes share (devices per
// node, fill, seed, sched, placement & drain, maintenance interval, faults,
// suspect windows) come from ClusterConfig. Bootstrap (ClusterCore) creates
// chunks up to the fill fraction and writes every LBA of every replica.
struct DifsConfig : ClusterConfig {
  uint32_t nodes = 6;
  uint32_t replication = 3;
  // diFS access-unit size in oPages (the paper's "equally-sized access
  // units"); Salamander devices set mSize equal to this.
  uint64_t chunk_opages = 64;

  // ---- Robustness knobs ----------------------------------------------------

  // Bounded retry with exponential backoff for kUnavailable device errors
  // (busy planes). Backoff is simulated time, accumulated in stats.
  uint32_t max_transient_retries = 4;
  uint64_t transient_backoff_base_ns = 10000;  // 10 us, doubled per retry
  // Cap on the exponent: retry r backs off base << min(r, max_shift),
  // saturating — a raw `base << r` wraps at high max_transient_retries.
  uint32_t transient_backoff_max_shift = 20;

  // ---- Telemetry hooks -----------------------------------------------------

  // Optional trace recorder (not owned; must outlive the cluster). The
  // cluster emits instant events — recovery waves, chunk losses, node
  // outages/rejoins — on lane `trace_tid`, timestamped with the simulated
  // time last passed to DifsCluster::set_trace_time_us() (the harness
  // advances it once per day / burst). nullptr disables recording with no
  // behavioral or RNG-stream impact.
  TraceRecorder* trace = nullptr;
  uint32_t trace_tid = 0;
};

// Replication-specific counters on top of the shared ClusterStats.
struct DifsStats : ClusterStats {
  uint64_t foreground_opage_writes = 0;
  uint64_t recovery_opage_writes = 0;  // §4.3 recovery traffic (writes)
  uint64_t recovery_opage_reads = 0;   // reads from survivor replicas
  uint64_t replicas_recovered = 0;     // successful re-replications
  uint64_t replicas_lost = 0;          // replica failures observed
  uint64_t chunks_lost = 0;            // all replicas gone: data loss
  uint64_t recovery_deferred = 0;      // no eligible target at the time
  uint64_t scrub_repairs = 0;          // pages rewritten after kDataLoss

  // ---- End-to-end integrity & scrub ---------------------------------------
  // Corrupt replica NOT retired because it was the chunk's last readable
  // copy — corrupt data beats no data (cf. Tai et al., live recovery).
  uint64_t integrity_retained_last_copies = 0;
  uint64_t integrity_survivor_reads = 0;  // foreground reads re-served
  uint64_t scrub_opage_reads = 0;      // background scrub device reads
  uint64_t scrub_detected = 0;         // corruptions first seen by scrub
  uint64_t scrub_passes = 0;           // full scrub sweeps completed

  // ---- Queueing & graceful degradation (sched) ----------------------------
  uint64_t sched_recovery_sheds = 0;  // recovery copies aborted by admission
  uint64_t sched_scrub_sheds = 0;     // scrub positions skipped by admission
  uint64_t brownout_scrub_deferrals = 0;     // ScrubStep calls deferred
  uint64_t brownout_recovery_deferrals = 0;  // recovery passes deferred

  // ---- Proactive drain -----------------------------------------------------
  uint64_t drain_replicas_migrated = 0;  // replicas moved off ahead of failure

  // ---- Suspect windows (crash-restart) ------------------------------------
  uint64_t suspect_replicas_revived = 0;  // replicas reconciled as fresh
  uint64_t suspect_replicas_stale = 0;    // replicas pruned as stale

  uint64_t recovery_bytes() const { return recovery_opage_writes * 4096; }
};

// A chunk is a group of R replicas: RS(1, R-1) in the core's terms.
using ReplicaLocation = UnitLocation;
using Chunk = UnitGroup;

class DifsCluster final : public ClusterCore {
 public:
  // `device_factory(global_index)` builds each device; indices are assigned
  // node-major (device i lives on node i / devices_per_node).
  DifsCluster(const DifsConfig& config, const DeviceFactory& device_factory);

  // Issues `opage_writes` foreground writes: each picks a random chunk and
  // offset and writes it through all live replicas (one logical write = R
  // device writes). Device events are processed as they appear.
  Status StepWrites(uint64_t opage_writes);

  // Reads `opage_reads` random chunk pages from random live replicas.
  // Uncorrectable reads are repaired by rewriting the page from RAM state
  // (scrub), counted in stats. Every read verifies the chunk's end-to-end
  // checksum: a mismatch retires the replica, re-serves the read from a
  // survivor, and re-replicates through the recovery scheduler (read-repair).
  Status StepReads(uint64_t opage_reads);

  // ---- Targeted foreground ops (the traffic engine's entry points) --------
  // Same semantics as one StepWrites/StepReads iteration, but the caller
  // chooses (chunk, offset) — a TrafficEngine address maps as
  // chunk = addr / chunk_opages(), offset = addr % chunk_opages(). When
  // `cost_ns` is non-null it receives the op's simulated service time:
  // replicas are written in parallel so a write costs its slowest replica
  // write plus any transient-retry backoff; a read costs the replica read
  // (plus the survivor re-serve after read-repair) plus backoff.

  // Writes `offset` of chunk `chunk_id` through all live replicas.
  // kDataLoss when the chunk is lost; kInvalidArgument out of range.
  Status WriteChunkAt(ChunkId chunk_id, uint64_t offset,
                      SimDuration* cost_ns = nullptr);
  // Reads `offset` of chunk `chunk_id` from a randomly chosen readable
  // replica (the replica draw comes from the cluster RNG, exactly as in
  // StepReads). kDataLoss when the chunk is lost or unreadable;
  // kUnavailable when every readable copy is behind a node outage.
  Status ReadChunkAt(ChunkId chunk_id, uint64_t offset,
                     SimDuration* cost_ns = nullptr);

  // Logical oPage address space a traffic engine should target:
  // total_chunks() * chunk_opages().
  uint64_t chunk_opages() const { return config_.chunk_opages; }
  uint64_t logical_opages() const {
    return groups_.size() * config_.chunk_opages;
  }

  // Background scrub: walks up to `opage_budget` replica oPages behind a
  // deterministic cursor (no RNG draws), performing real device reads — so
  // scrub traffic wears flash per §4.3 — and repairing any corruption it
  // detects through the same read-repair path. Returns the number of oPages
  // actually read. A zero budget is a no-op.
  uint64_t ScrubStep(uint64_t opage_budget);

  // ---- Introspection -----------------------------------------------------

  const DifsStats& stats() const { return stats_; }
  uint64_t total_chunks() const { return groups_.size(); }
  uint64_t chunks_fully_replicated() const { return groups_at_full_width(); }
  uint64_t chunks_under_replicated() const {
    return groups_below_full_width();
  }
  uint64_t chunks_lost() const { return stats_.chunks_lost; }
  const Chunk& chunk(ChunkId id) const { return groups_[id]; }
  // Chunks parked until placement capacity appears (recovery deferred).
  uint64_t chunks_waiting_capacity() const { return waiting_capacity_.size(); }
  uint64_t pending_recovery_backlog() const {
    return pending_repairs_.size();
  }

  // Simulated timestamp stamped onto trace events the cluster emits (see
  // DifsConfig::trace). The harness advances it once per day / burst.
  void set_trace_time_us(uint64_t ts_us) { trace_time_us_ = ts_us; }

  // Scrapes DifsStats (re-replication bytes, resync rounds, retry/backoff,
  // drain outcomes), replication-health gauges, and every device's
  // "<prefix>ssd.*" subtree into "<prefix>difs.*". Cluster-level injected
  // faults land under "<prefix>cluster_faults.". Additive — collect once per
  // cluster (see telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

 private:
  // ---- Core hooks ----------------------------------------------------------
  const ClusterConfig& shared_config() const override { return config_; }
  ClusterStats& shared_stats() override { return stats_; }
  const ClusterStats& shared_stats() const override { return stats_; }
  SchemeCounters scheme_counters() override;
  // Grace window: replicas on a draining mDisk stay readable and are
  // re-replicated first; the drain is acked once the last one is released.
  void HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) override;
  // Copies the chunk from one survivor: a non-draining replica when one is
  // reachable (guaranteed fresh), else a draining one — the §4.3 grace
  // window exists precisely so this fallback is available.
  bool RepairOneUnit(uint64_t chunk_id) override;

  // Shared body of StepReads and ReadChunkAt. Preserves the legacy RNG draw
  // order exactly: candidates -> live_index -> offset — when `offset_ptr` is
  // null the offset is drawn from the cluster RNG *after* the replica pick,
  // as StepReads always has; a caller-provided offset skips that draw.
  Status ReadChunkImpl(ChunkId chunk_id, const uint64_t* offset_ptr,
                       SimDuration* cost_ns);

  const DifsConfig config_;
  DifsStats stats_;
  // Scrub position: major = chunk id, minor = replica * chunk_opages +
  // offset (flattened so the two-level cursor covers all three axes).
  ScrubCursor scrub_cursor_;
};

}  // namespace salamander

#endif  // SALAMANDER_DIFS_CLUSTER_H_
