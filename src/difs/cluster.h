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
// suspect windows) come from ClusterConfig.
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
  // Replicas that were lost while STILL draining (forced drain finish or a
  // brick during the grace window) — each is a failure the grace period was
  // supposed to prevent.
  uint64_t drain_window_losses = 0;
  uint64_t chunks_lost = 0;            // all replicas gone: data loss
  uint64_t recovery_deferred = 0;      // no eligible target at the time
  uint64_t uncorrectable_reads = 0;    // device-level kDataLoss on reads
  uint64_t scrub_repairs = 0;          // pages rewritten after kDataLoss
  // Largest amount of recovery I/O performed in one event wave (one
  // ProcessEvents call) — the burstiness contrast of Fig. 1 / §4.3: a
  // whole-device failure forces one huge wave, mDisk failures many tiny ones.
  uint64_t max_wave_recovery_opages = 0;
  uint64_t recovery_waves = 0;         // waves with any recovery I/O

  // ---- Robustness counters -------------------------------------------------
  uint64_t transient_retries = 0;      // kUnavailable ops retried
  uint64_t transient_giveups = 0;      // ops still kUnavailable after retries
  uint64_t backoff_ns = 0;             // simulated backoff time accumulated

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

// One replica's location: a slot within an mDisk of a device.
struct ReplicaLocation {
  uint32_t device = 0;  // global device index
  MinidiskId mdisk = 0;
  uint32_t slot = 0;    // chunk slot within the mDisk
  bool live = false;
  // The mDisk is draining (grace-period decommissioning): still readable,
  // no longer counted toward the replication target.
  bool draining = false;
  // Chunk generation last successfully written to this replica. A replica on
  // a device that went dark misses foreground writes; after the device
  // returns, generation != chunk.generation marks the replica stale.
  uint64_t generation = 0;
};

struct Chunk {
  ChunkId id = 0;
  std::vector<ReplicaLocation> replicas;
  bool lost = false;
  // End-to-end integrity metadata: checksum stamped over the chunk's logical
  // contents (id + write generation) at bootstrap and restamped on every
  // foreground write; recovery copies it verbatim with the data.
  uint64_t checksum = 0;
  uint64_t generation = 0;

  // Replicas counting toward the replication factor (live, not draining).
  uint32_t live_replicas() const {
    uint32_t n = 0;
    for (const ReplicaLocation& r : replicas) {
      n += (r.live && !r.draining) ? 1 : 0;
    }
    return n;
  }
  // Replicas the data can still be read from (includes draining ones).
  uint32_t readable_replicas() const {
    uint32_t n = 0;
    for (const ReplicaLocation& r : replicas) {
      n += r.live ? 1 : 0;
    }
    return n;
  }
};

class DifsCluster final : public ClusterCore {
 public:
  // `device_factory(global_index)` builds each device; indices are assigned
  // node-major (device i lives on node i / devices_per_node).
  DifsCluster(const DifsConfig& config, const DeviceFactory& device_factory);

  // Creates chunks up to the configured fill fraction, places replicas on
  // distinct nodes, and writes every LBA of every replica (initial load).
  Status Bootstrap();

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
    return chunks_.size() * config_.chunk_opages;
  }

  // Background scrub: walks up to `opage_budget` replica oPages behind a
  // deterministic cursor (no RNG draws), performing real device reads — so
  // scrub traffic wears flash per §4.3 — and repairing any corruption it
  // detects through the same read-repair path. Returns the number of oPages
  // actually read. A zero budget is a no-op.
  uint64_t ScrubStep(uint64_t opage_budget);

  // Drains device events and runs the recovery scheduler (also invoked
  // internally by StepWrites/StepReads); accounts each recovery wave.
  void ProcessEvents() override;

  // The core's slot-map checks plus the replication ones: draining flags and
  // draining_pending coherence, replication bounds, and lost <-> unreadable
  // consistency.
  Status CheckInvariants() const override;

  // ---- Introspection -----------------------------------------------------

  const DifsStats& stats() const { return stats_; }
  uint64_t total_chunks() const { return chunks_.size(); }
  uint64_t chunks_fully_replicated() const;
  uint64_t chunks_under_replicated() const;
  uint64_t chunks_lost() const { return stats_.chunks_lost; }
  const Chunk& chunk(ChunkId id) const { return chunks_[id]; }
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
  void LoseUnit(uint32_t device_index, MinidiskId mdisk, uint32_t slot,
                int64_t ref) override;
  // Grace window: replicas on a draining mDisk stay readable and are
  // re-replicated first; the drain is acked once the last one is released.
  void HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) override;
  // One pass over the pending-recovery queue; returns how many replicas were
  // successfully re-created. While the cluster is in brownout the pass is
  // deferred (counted) unless ForceReconcile is driving convergence.
  uint64_t RunRepairPass() override;
  // Walks chunks in id order and moves live replicas off flagged devices.
  void MigrateOffFlaggedDevices() override;
  // Fresh: the replica's generation matches the chunk's and no LBA rolled
  // back. Stale replicas are pruned and re-replicated.
  void ReconcileReturnedUnit(uint32_t device_index, MinidiskId mdisk,
                             uint32_t slot, int64_t ref) override;
  // AckDrain with the transient retry every device op gets.
  Status DeliverAckDrain(uint32_t device_index, MinidiskId mdisk) override;
  uint64_t unit_groups() const override { return chunks_.size(); }
  uint64_t GroupOfRef(int64_t ref) const override {
    return static_cast<uint64_t>(ref);
  }
  void AppendLiveUnits(uint64_t group,
                       std::vector<LiveUnit>* out) const override;

  // After `chunk` reached full replication, releases its draining replicas
  // and acks drains whose last pending chunk this was.
  void ReleaseDrainingReplicas(Chunk& chunk);
  // One slot of draining mDisk `mdisk` no longer holds pending data:
  // decrements its draining_pending count and, at zero, forgets the mDisk
  // and acks the drain.
  void ReleaseDrainingSlot(uint32_t device_index, MinidiskId mdisk);
  // Attempts to restore one missing replica of `chunk_id`. Returns true on
  // success, false if no eligible target or no live source exists.
  bool RecoverOneReplica(ChunkId chunk_id);
  // Releases a slot claimed for an in-flight copy (recovery or drain
  // migration) that aborted. Drain-aware: if the target mDisk started
  // draining while the copy was in flight, the claim was counted in
  // draining_pending (HandleMdiskDraining cannot tell a claim from a placed
  // replica), so the slot is released as drained — never as new free
  // capacity — with the pending count decremented and the drain acked when
  // this was its last pending slot.
  void ReleaseClaimedSlot(uint32_t device_index, MinidiskId mdisk,
                          uint32_t slot, ChunkId chunk_id);
  // Moves one live replica off a flagged device onto a PickTarget-chosen
  // slot (real read + writes, drain_* accounted, admission-controlled under
  // OpClass::kRecovery). Returns false when parked (no target, shed, or the
  // copy aborted) — the next tick retries.
  bool MigrateReplicaOff(Chunk& chunk, ReplicaLocation& replica);
  // Writes one replica oPage; on success returns the device write latency.
  StatusOr<SimDuration> WriteReplica(ReplicaLocation& replica,
                                     uint64_t offset);
  // Shared body of StepWrites and WriteChunkAt: stamps the new generation
  // and writes every live replica. kDataLoss when the chunk is lost,
  // kUnavailable when admission control sheds the whole op (queueing only;
  // no replica is touched, so none goes stale). Draws no RNG values.
  Status WriteChunkBody(Chunk& chunk, uint64_t offset, SimDuration* cost_ns);
  // Shared body of StepReads and ReadChunkAt. Preserves the legacy RNG draw
  // order exactly: candidates -> live_index -> offset — when `offset_ptr` is
  // null the offset is drawn from the cluster RNG *after* the replica pick,
  // as StepReads always has; a caller-provided offset skips that draw.
  Status ReadChunkImpl(ChunkId chunk_id, const uint64_t* offset_ptr,
                       SimDuration* cost_ns);

  // Retires a corrupt replica: frees (or drain-releases) its slot, marks it
  // dead, and queues the chunk for re-replication unless `enqueue` is false
  // (recovery already has it in hand). Refuses to retire the chunk's last
  // readable copy — corrupt data beats no data — returning false and
  // counting integrity_retained_last_copies instead.
  bool MarkReplicaBad(Chunk& chunk, ReplicaLocation& replica, bool enqueue);
  // Drops a live replica: frees (or drain-releases) its slot, marks it dead,
  // and queues the chunk for re-replication when `enqueue`.
  void RetireReplica(Chunk& chunk, ReplicaLocation& replica, bool enqueue);

  // Admission fan-out for one foreground chunk write: every device the
  // fan-out will touch must admit, or the whole op sheds (avoids partial
  // replica staleness). `*extra_ns` receives the parallel admission
  // overhead — max over target devices of wait + shed-retry backoff.
  bool AdmitForegroundWrite(const Chunk& chunk, uint64_t* extra_ns);

  static StatusCode ResultCode(const Status& status) { return status.code(); }
  template <typename T>
  static StatusCode ResultCode(const StatusOr<T>& result) {
    return result.status().code();
  }
  // Runs `op`, retrying kUnavailable up to max_transient_retries times with
  // exponential (simulated-time) backoff.
  template <typename Op>
  auto WithTransientRetry(Op op) -> decltype(op()) {
    auto result = op();
    for (uint32_t retry = 0;
         ResultCode(result) == StatusCode::kUnavailable &&
         retry < config_.max_transient_retries;
         ++retry) {
      ++stats_.transient_retries;
      // Retry r waits base << r, with the shift capped (saturating) so high
      // max_transient_retries configs cannot wrap the accumulated backoff.
      stats_.backoff_ns +=
          CappedBackoffNs(config_.transient_backoff_base_ns, retry,
                          config_.transient_backoff_max_shift);
      result = op();
    }
    if (ResultCode(result) == StatusCode::kUnavailable) {
      ++stats_.transient_giveups;
    }
    return result;
  }

  const DifsConfig config_;
  DifsStats stats_;
  // Scrub position: major = chunk id, minor = replica * chunk_opages +
  // offset (flattened so the two-level cursor covers all three axes).
  ScrubCursor scrub_cursor_;
  std::vector<Chunk> chunks_;
};

}  // namespace salamander

#endif  // SALAMANDER_DIFS_CLUSTER_H_
