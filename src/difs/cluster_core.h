// The cluster core: the redundancy machinery of the diFS, written once for
// replication (DifsCluster) and erasure coding (EcCluster).
//
// The paper's claim is that a diFS's existing redundancy absorbs minidisk
// failures, whatever the redundancy scheme. The core treats every scheme as
// a code over *groups* of *units*, each unit occupying one slot of one
// mDisk: a group is readable while k units survive and is repaired back to
// its full width. Replication with R copies is RS(1, R-1) — k = 1 out of a
// width of R — and RS(k+m) erasure coding is k out of k + m. Everything
// below is written once in terms of (k, width):
//   - the group and unit records, bootstrap (placement, rollback and the
//     initial load) and the foreground write fan-out (arrival tick,
//     all-or-nothing admission, generation and checksum stamp, per-unit
//     writes with the outage skip, slowest-unit cost);
//   - unit writes, mark-bad and retire (the retention floor is "k readable
//     units left"), transient retries, and the end-to-end checksum verdict;
//   - the repair pass (brownout deferral, batch snapshot, criticality order,
//     repair to full width, parking a group that makes no net progress) and
//     the copy-target write shared by repair and drain migration;
//   - the device table, node/rack topology and injected node outages; mDisk
//     event intake and resync against device ground truth; placement;
//   - the maintenance tick: outage lottery, suspect windows and the
//     reconciliation of returned units, proactive drain with its migration
//     walk and unit move; queueing/brownout set-up and the bookkeeping
//     invariants.
// A scheme keeps only what differs: how it repairs one unit (replication
// copies one survivor, preferring a non-draining one; EC reconstructs from k
// sources), how it handles a draining mDisk (replication's grace window), its
// read paths with the hedge, replication's scrub, and its metric names.
#ifndef SALAMANDER_DIFS_CLUSTER_CORE_H_
#define SALAMANDER_DIFS_CLUSTER_CORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/minidisk.h"
#include "difs/placement.h"
#include "faults/fault_injector.h"
#include "integrity/checksum.h"
#include "sched/queueing.h"
#include "ssd/ssd_device.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace salamander {

// Config fields both schemes share, with the same contract in each.
struct ClusterConfig {
  uint32_t devices_per_node = 1;
  // Fraction of initial cluster slots to fill with units.
  double fill_fraction = 0.6;
  uint64_t seed = 1;

  // ---- Queueing & graceful degradation -------------------------------------

  // Per-device service queues, admission control, hedged reads, and the
  // brownout SLO guard. sched.queue_depth == 0 (default) disables the whole
  // layer: no queues, no extra RNG streams, byte-identical outputs.
  SchedConfig sched;

  // ---- Failure domains, placement & proactive drain ------------------------

  // Nodes per rack / power domain. Consecutive nodes share a rack
  // (rack = node / nodes_per_rack); 0 or 1 keeps every node its own rack.
  // Pure topology: consumed only by domain-aware policies and harnesses,
  // never by the baseline data path.
  uint32_t nodes_per_rack = 0;

  // Pluggable placement policy (see difs/placement.h). nullptr — the
  // default — and UniformPlacement both reproduce the legacy single-draw
  // linear probe bit-for-bit; a constraining policy (DomainSpreadPlacement)
  // adds a constrained probe pass with counted fallbacks.
  std::shared_ptr<PlacementPolicy> placement;

  // When true, each repair pass works its budgeted batch in criticality
  // order — groups with fewer surviving units repair first (ties by id) —
  // instead of FIFO. Changes only the order within a pass, so quiescent
  // outcomes are identical; during a repair storm with admission control the
  // groups closest to loss get the queue room first.
  bool criticality_ordered_recovery = false;

  // Proactive health-driven drain: when > 0, each maintenance tick scores
  // every device (SsdDevice::HealthScore) and devices at or below the
  // threshold are flagged and their units migrated off ahead of failure,
  // accounted under drain_* (separate from reactive repair traffic). A
  // threshold wakes maintenance even in a fault-free cluster. 0 (default)
  // disables the scan entirely.
  double drain_health_threshold = 0.0;
  // Look-ahead horizon for the tiring-forecast half of the health score, as
  // a fraction of each page's current P/E count (see
  // Ftl::ForecastTiringOPages).
  double drain_pec_horizon = 0.25;

  // ---- Chaos & maintenance -------------------------------------------------

  // Every this many foreground ops the cluster runs a maintenance tick: node
  // outage/rejoin processing, suspect windows, event-channel reconciliation
  // (resync of every reachable device, lost-AckDrain resend), a retry of
  // parked repairs, and the proactive drain scan. 0 = automatic: 256 when a
  // fault injector is attached or drain_health_threshold > 0, never
  // otherwise — so a fault-free cluster's behavior (and RNG schedule) is
  // untouched.
  uint64_t maintenance_interval_ops = 0;

  // Cluster-level chaos injector (node outages, lost AckDrains). Distinct
  // instance from the per-device injectors; nullptr disables.
  std::shared_ptr<FaultInjector> faults;

  // When > 0, a device that goes dark from a transient power loss is held
  // "suspect" for this many maintenance ticks instead of having its units
  // declared lost immediately. If it restarts within the window, surviving
  // units are reconciled in place (fresh ones revived, stale ones repaired)
  // and no repair traffic is spent on the fresh ones; on expiry the device
  // is treated exactly like a brick. 0 (default) keeps the legacy
  // declare-immediately behavior and touches no code path.
  uint64_t suspect_grace_ticks = 0;
};

// Counters both schemes keep under the same name.
struct ClusterStats {
  uint64_t drains_started = 0;      // kDraining events observed
  uint64_t drains_acked = 0;        // drains completed with AckDrain
  uint64_t acks_lost = 0;           // AckDrains that never reached a device
  uint64_t node_outages = 0;        // injected outages started
  uint64_t outage_write_skips = 0;  // unit writes skipped, node out
  uint64_t maintenance_ticks = 0;
  uint64_t resync_passes = 0;       // ResyncDevice invocations
  uint64_t resync_repairs = 0;      // discrepancies repaired by resync

  // ---- End-to-end integrity ------------------------------------------------
  // Silently corrupt fpage reads observed (checksum mismatches). Exact:
  // equals the sum of the per-device injectors' read_corrupt site counters,
  // because every injected draw happens under a cluster-issued read and the
  // cluster snapshots each device's FTL corruption counter after every read.
  uint64_t integrity_detected = 0;
  uint64_t integrity_marked_bad = 0;  // units retired for corruption

  // ---- Suspect windows (crash-restart) -------------------------------------
  uint64_t suspect_windows_started = 0;   // devices that went dark on grace
  uint64_t suspect_windows_expired = 0;   // grace ran out: treated as brick
  uint64_t suspect_devices_returned = 0;  // restarted within the window

  // ---- Queueing & graceful degradation (all zero while disabled) -----------
  uint64_t sched_read_sheds = 0;    // foreground reads refused at admission
  uint64_t sched_write_sheds = 0;   // foreground writes refused whole
  uint64_t sched_wait_ns = 0;       // foreground queue wait + shed backoff
  uint64_t sched_hedged_reads = 0;  // reads that fanned out a hedge
  uint64_t sched_hedge_wins = 0;    // hedge path completed first

  // ---- Failure domains, placement & proactive drain ------------------------
  // Candidates vetoed by the placement policy's constrained pass.
  uint64_t placement_domain_rejections = 0;
  // Placements that exhausted the constrained pass and fell back to the
  // node-disjoint baseline. 0 means every placement honored the domain
  // constraint (CheckInvariants then enforces rack-disjointness).
  uint64_t placement_domain_fallbacks = 0;
  uint64_t drain_devices_flagged = 0;     // devices whose health tripped
  uint64_t drain_devices_completed = 0;   // flagged devices fully evacuated
  uint64_t drain_opage_reads = 0;         // proactive migration reads
  uint64_t drain_opage_writes = 0;        // proactive migration writes
  uint64_t drain_migrations_parked = 0;   // no target / copy aborted; retried
  uint64_t drain_brownout_deferrals = 0;  // drain passes yielded to brownout
  // Drain migrations refused by queue admission. Sub-count of the scheme's
  // repair-shed counter (drain I/O rides OpClass::kRecovery), so the
  // device-giveup ledger stays exact.
  uint64_t drain_sched_sheds = 0;
  // Units lost while still draining (forced drain finish or a brick during
  // the grace window) — each is a failure the grace period was supposed to
  // prevent. Replication only: EC units never drain.
  uint64_t drain_window_losses = 0;

  // ---- Unit I/O ------------------------------------------------------------
  // Successful unit writes of the initial load and the foreground fan-out.
  uint64_t foreground_device_writes = 0;
  uint64_t uncorrectable_reads = 0;  // device-level kDataLoss on reads
  // Largest amount of repair I/O performed in one event wave (one
  // ProcessEvents call) — the burstiness contrast of Fig. 1 / §4.3: a
  // whole-device failure forces one huge wave, mDisk failures many tiny ones.
  uint64_t max_wave_recovery_opages = 0;
  uint64_t recovery_waves = 0;      // waves with any repair I/O
  uint64_t transient_retries = 0;   // kUnavailable ops retried
  uint64_t transient_giveups = 0;   // ops still kUnavailable after retries
  uint64_t backoff_ns = 0;          // simulated backoff time accumulated
};

// One unit of a redundancy group — a replica of a chunk, a cell of a stripe —
// in one slot of one mDisk.
struct UnitLocation {
  uint32_t device = 0;  // global device index
  MinidiskId mdisk = 0;
  uint32_t slot = 0;  // unit slot within the mDisk
  bool live = false;
  // Replication's grace window: the mDisk is draining, so the unit is still
  // readable but no longer counts toward the group's width. Never set by EC.
  bool draining = false;
  // The most recent write targeting this unit did not land (node outage,
  // dark device, draining mDisk): its bytes lag the group's checksum. A
  // suspect device's returning units are fresh only when not stale.
  bool stale = false;
  // Group generation of the last write that landed on this unit.
  uint64_t generation = 0;
};

// A redundancy group: a chunk of R replicas or a stripe of k + m cells.
struct UnitGroup {
  uint64_t id = 0;
  // Replicas in no fixed order (repair prunes dead records and appends), or
  // cells indexed by cell number (0..k-1 data, k..k+m-1 parity), stable.
  std::vector<UnitLocation> units;
  bool lost = false;
  // End-to-end integrity metadata: checksum stamped over the group's logical
  // contents (id + write generation) at bootstrap and restamped on every
  // foreground write; repair copies it verbatim with the data.
  uint64_t checksum = 0;
  uint64_t generation = 0;

  // Units counting toward the group's width (live, not draining).
  uint32_t live_units() const {
    uint32_t n = 0;
    for (const UnitLocation& unit : units) {
      n += (unit.live && !unit.draining) ? 1 : 0;
    }
    return n;
  }
  // Units the data can still be read from (includes draining ones).
  uint32_t readable_units() const {
    uint32_t n = 0;
    for (const UnitLocation& unit : units) {
      n += unit.live ? 1 : 0;
    }
    return n;
  }
};

class ClusterCore {
 public:
  using DeviceFactory = std::function<std::unique_ptr<SsdDevice>(uint32_t)>;

  virtual ~ClusterCore() = default;
  ClusterCore(const ClusterCore&) = delete;
  ClusterCore& operator=(const ClusterCore&) = delete;
  ClusterCore& operator=(ClusterCore&&) = delete;

  // Creates groups up to the configured fill fraction, places each group's
  // `width` units on distinct nodes, and writes every LBA of every unit (the
  // initial load). A group that cannot be placed whole is rolled back and
  // ends the fill.
  Status Bootstrap();

  // Drains device events and runs repair passes until a pass makes no
  // progress (also invoked internally by every foreground op); accounts
  // each repair wave.
  void ProcessEvents();

  // Full reconciliation: resyncs every reachable device against cluster
  // bookkeeping, retries parked repairs, and drives repair to quiescence —
  // even under brownout or admission pressure. Chaos tests call this after a
  // fault burst to assert convergence.
  void ForceReconcile();

  // Cross-checks the bookkeeping: every slot-map entry is backed by exactly
  // one live unit record and every live unit by its slot, free-slot counts
  // match the maps, draining flags and draining_pending agree with the
  // maps, a group's live units are node-disjoint (and rack-disjoint when a
  // constraining policy never fell back) and never exceed its width, and a
  // group is marked lost exactly when fewer than k units are readable.
  // kInternal with a description on the first violation. O(cluster); run
  // after every repair wave in debug builds, and by tests/soaks at will.
  Status CheckInvariants() const;

  // ---- Tick scheduling (discrete-event drivers) ----------------------------
  // Instead of polling after every op, an event-driven harness asks once
  // when the next maintenance tick is due and jumps there.

  // True when maintenance can never fire: automatic interval with no
  // injector attached anywhere and proactive drain off. A dormant cluster
  // posts no maintenance events at all. Fixed at construction.
  bool MaintenanceDormant() const { return maintenance_dormant_; }
  // Foreground ops until the next maintenance tick fires (>= 1);
  // UINT64_MAX when dormant.
  uint64_t OpsUntilMaintenanceTick() const;

  // ---- Introspection -------------------------------------------------------

  uint32_t alive_devices() const;
  uint64_t free_slots() const;
  // Live cluster capacity in bytes, across all devices.
  uint64_t live_capacity_bytes() const;
  uint64_t initial_capacity_bytes() const { return initial_capacity_bytes_; }
  // Total host data written across all devices (time axis for aging plots).
  uint64_t total_bytes_written() const;
  SsdDevice& device(uint32_t index) { return *devices_[index].device; }
  const SsdDevice& device(uint32_t index) const {
    return *devices_[index].device;
  }
  uint32_t device_count() const {
    return static_cast<uint32_t>(devices_.size());
  }
  // Devices are indexed node-major: device i lives on node
  // i / devices_per_node.
  uint32_t node_of_device(uint32_t device) const {
    return device / devices_per_node_;
  }
  // Failure-domain topology: consecutive nodes share a rack.
  uint32_t rack_of_node(uint32_t node) const {
    return node / (nodes_per_rack_ == 0 ? 1 : nodes_per_rack_);
  }
  uint32_t rack_of_device(uint32_t device) const {
    return rack_of_node(node_of_device(device));
  }
  // Node currently unreachable due to an injected outage, or -1.
  int32_t outage_node() const { return outage_node_; }

  // ---- Queueing & graceful degradation introspection -----------------------
  // Simulated arrival clock: advances sched.arrival_interval_ns per
  // foreground op while queueing is enabled; stays 0 otherwise.
  uint64_t sched_clock_ns() const { return sched_clock_ns_; }
  // Per-device service queue; nullptr when queueing is disabled.
  const DeviceQueue* device_queue(uint32_t index) const {
    return devices_[index].device->queue();
  }
  // Brownout controller; nullptr unless sched.slo_p99_ns > 0.
  const BrownoutController* brownout() const { return brownout_.get(); }

 protected:
  // Bounded retry with exponential (simulated-time) backoff for kUnavailable
  // device errors; max_retries == 0 makes one attempt.
  struct RetryPolicy {
    uint32_t max_retries = 0;
    uint64_t backoff_base_ns = 0;
    uint32_t backoff_max_shift = 0;
  };

  // Where the two schemes' legacy behavior differs, each keeps its own.
  struct SchemeTraits {
    // Metric-name root and trace category ("difs", "ec").
    const char* name;
    uint64_t rng_salt;
    // Draining mDisks keep serving until their units are re-created (the
    // replication grace window), so placement probes devices with pending
    // drains only in a second, last-resort pass.
    bool grace_window_drains;
    // Repairs made by an unsolicited resync (after dropped events) count as
    // processed events, which re-arms parked repairs.
    bool resync_repairs_are_events;
    RetryPolicy retry;
    // Log and trace text: "<group> <id> <lost_log>" when a group is lost,
    // and the trace events for a lost group and a unit retired as corrupt.
    const char* group;
    const char* lost_log;
    const char* group_lost_event;
    const char* unit_bad_event;
    // Status message of a foreground write shed at admission.
    const char* write_shed_message;
  };

  // Counters the two schemes keep under different legacy names
  // (replication / EC). The scheme builds this view on every call, so no
  // pointer into its stats outlives a move of the cluster.
  struct SchemeCounters {
    uint64_t& units_lost;          // replicas_lost / cells_lost
    uint64_t& groups_lost;         // chunks_lost / stripes_lost
    uint64_t& units_repaired;      // replicas_recovered / cells_rebuilt
    uint64_t& repair_writes;       // recovery_ / rebuild_opage_writes
    uint64_t& repair_deferred;     // recovery_ / rebuild_deferred
    uint64_t& repair_sheds;        // sched_recovery_ / sched_rebuild_sheds
    uint64_t& brownout_deferrals;  // brownout_recovery_ / _rebuild_deferrals
    uint64_t& units_migrated;      // drain_replicas_ / drain_cells_migrated
    // integrity_retained_last_copies / integrity_retained_cells
    uint64_t& retained;
    uint64_t& suspect_revived;     // suspect_replicas_ / suspect_cells_revived
    uint64_t& suspect_stale;       // suspect_replicas_ / suspect_cells_stale
  };

  static constexpr int64_t kFreeSlot = -1;
  // Slot on a draining mDisk that can take no new data.
  static constexpr int64_t kUnavailableSlot = -2;
  // RepairUnit: prune dead unit records and append the new one.
  static constexpr uint32_t kAppendUnit = UINT32_MAX;

  // One slot of one mDisk (a placement target).
  struct SlotRef {
    uint32_t device = 0;
    MinidiskId mdisk = 0;
    uint32_t slot = 0;
  };

  struct DeviceState {
    std::unique_ptr<SsdDevice> device;
    uint32_t slots_per_mdisk = 0;
    // Per live mDisk: slot -> the id of the group whose unit it holds
    // (>= 0), kFreeSlot, or kUnavailableSlot.
    std::unordered_map<MinidiskId, std::vector<int64_t>> slots;
    uint64_t free_slot_count = 0;
    // Grace-window draining mDisks -> units still awaiting re-creation
    // before the ack (replication only; always empty for EC).
    std::unordered_map<MinidiskId, uint32_t> draining_pending;
    // Last value of device->dropped_events() the cluster has seen; when the
    // counter moves, the event stream is incomplete and a resync runs.
    uint64_t observed_dropped_events = 0;
    // Last value of the device FTL's silent_corrupt_fpage_reads counter the
    // cluster has reconciled into integrity_detected.
    uint64_t observed_silent_corrupt = 0;
    // ---- Suspect window (crash-restart) ----
    // Device is dark but within its grace window: bookkeeping untouched.
    bool suspect = false;
    uint64_t suspect_ticks_left = 0;
    // The darkness has been fully handled (window expired -> losses
    // declared); prevents re-opening a window for the same outage. Cleared
    // when the device serves again.
    bool down_handled = false;
    // ---- Proactive health-driven drain ----
    // Health score tripped the drain threshold: units are being migrated off
    // and PickTarget refuses to place new data here. Sticky — a device this
    // close to death is never un-flagged.
    bool health_draining = false;
    // Evacuation completed (counted once in drain_devices_completed).
    bool health_drain_done = false;
  };

  // `k` units of a group must survive for it to stay readable; repair
  // restores it to `width` units. `seed` is the scheme config's seed.
  ClusterCore(const SchemeTraits& traits, uint32_t k, uint32_t width,
              uint64_t seed);
  // Clusters are returned by value.
  ClusterCore(ClusterCore&&) = default;

  // Second construction phase, run from the scheme's constructor body so
  // the scheme's hooks dispatch: builds every device with `device_factory`
  // (slots_per_mdisk = mSize / unit_opages), registers its initial
  // capacity, and sets up queues and the brownout guard.
  void SetUpDevices(uint32_t nodes, uint64_t unit_opages,
                    const DeviceFactory& device_factory);

  // ---- Scheme hooks --------------------------------------------------------

  // The scheme owns its config and stats; the core works on their shared
  // parts.
  virtual const ClusterConfig& shared_config() const = 0;
  virtual ClusterStats& shared_stats() = 0;
  virtual const ClusterStats& shared_stats() const = 0;
  virtual SchemeCounters scheme_counters() = 0;
  // The mDisk entered kDraining.
  virtual void HandleMdiskDraining(uint32_t device_index,
                                   MinidiskId mdisk) = 0;
  // Re-creates one missing unit of `group`: selects and reads the sources
  // (retiring any that fail their checksum), picks and admits a target, and
  // hands the copy to RepairUnit. False when no source, target or queue
  // room is available, or the copy aborted.
  virtual bool RepairOneUnit(uint64_t group) = 0;

  // ---- Foreground writes ---------------------------------------------------

  // Writes `offset` of the (not lost) group through its units: the data
  // unit, then every unit from index k on (EC's parity cells; replication's
  // other replicas, with unit 0 as the data unit). One arrival tick, then
  // all-or-nothing queue admission — a refused op touches no unit and sheds
  // whole (kUnavailable). Every targeted live unit takes the write with the
  // new generation, or is marked stale; the op costs its slowest unit write
  // plus transient-retry backoff and admission wait, and counts one in
  // `*logical_writes`. Draws no RNG.
  Status WriteGroup(UnitGroup& group, uint32_t data_unit, uint64_t offset,
                    SimDuration* cost_ns, uint64_t* logical_writes);
  // Writes one unit oPage (live, non-draining units only; skipped and
  // counted under a node outage); on success returns the write latency.
  StatusOr<SimDuration> WriteUnit(const UnitLocation& unit, uint64_t offset);

  // ---- Unit retirement -----------------------------------------------------

  // Retires a corrupt unit and (unless `enqueue` is false — the repair loop
  // already owns the group) queues its group for repair. Refuses at the
  // retention floor — k readable units left: corrupt data beats no data
  // (Tai et al.'s live-recovery argument) — returning false and counting
  // the scheme's retained counter instead.
  bool MarkUnitBad(UnitGroup& group, UnitLocation& unit, bool enqueue);
  // Drops a live unit: releases its slot (drain-aware), marks it dead, and
  // queues the group for repair when `enqueue`.
  void RetireUnit(UnitGroup& group, UnitLocation& unit, bool enqueue);
  // The live unit of `group` at (device, mdisk, slot), or nullptr.
  static UnitLocation* FindLiveUnit(UnitGroup& group, uint32_t device_index,
                                    MinidiskId mdisk, uint32_t slot);
  // Nodes of the group's units that count toward its width: a new unit
  // must land on none of them.
  std::vector<uint32_t> SpreadNodes(const UnitGroup& group) const;

  // ---- Repair and drain copies ---------------------------------------------

  // Reads all of `unit` as a repair or drain copy source, adding its oPages
  // to `*reads` and charging the source queue; a failed read counts in
  // uncorrectable_reads. Returns whether the read succeeded.
  bool ReadCopySource(const UnitLocation& unit, uint64_t* reads);
  // Claims `target` for `group` and writes every LBA of the unit, adding
  // each oPage to `*writes`. On a failed write it surfaces the target's
  // events and releases the claim drain-aware (ReleaseSlot), returning
  // false; on success the whole copy is charged to the target's queue.
  bool WriteCopyTarget(const SlotRef& target, uint64_t group,
                       uint64_t* writes);
  // Finishes a repair whose sources were read: writes the target and
  // installs the new unit at units[unit_index] (kAppendUnit: after pruning
  // dead records). A group back at full width releases its draining units;
  // the target's events surface last.
  bool RepairUnit(uint64_t group, const SlotRef& target, uint32_t unit_index);

  // ---- Shared machinery ----------------------------------------------------

  // Returns the number of events processed.
  size_t ApplyDeviceEvents(uint32_t device_index);
  // The mDisk is gone (decommissioned, bricked, or resynced away): every
  // unit on it is lost (LoseUnit) and its slot map is dropped.
  void HandleMdiskLoss(uint32_t device_index, MinidiskId mdisk);
  // Random start, linear probe over devices with free slots on nodes not in
  // `exclude_nodes`, honoring the placement policy (see the .cc).
  bool PickTarget(const std::vector<uint32_t>& exclude_nodes, SlotRef* out);
  // Releases a slot if it still holds `group` (its mDisk may have been
  // decommissioned, and its map dropped, meanwhile). Drain-aware: on a
  // draining mDisk the slot was counted in draining_pending
  // (HandleMdiskDraining cannot tell an in-flight claim from a placed unit),
  // so it is released as drained — never as new free capacity — and the
  // drain is acked when this was its last pending slot.
  void ReleaseSlot(uint32_t device_index, MinidiskId mdisk, uint32_t slot,
                   uint64_t group);
  // One slot of draining mDisk `mdisk` no longer holds pending data:
  // decrements its draining_pending count and, at zero, forgets the mDisk
  // and acks the drain.
  void ReleaseDrainingSlot(uint32_t device_index, MinidiskId mdisk);
  // Repair and drain copies are admission-controlled like any other I/O,
  // under OpClass::kRecovery: every source read and the target write must
  // find queue room, or the copy sheds whole. Always true without queueing,
  // and under ForceReconcile — convergence beats backpressure there.
  bool AdmitRecoveryIo(uint32_t device_index);
  // Charges a finished repair/drain transfer to the device's queue (no-op
  // where AdmitRecoveryIo admits unconditionally).
  void CompleteRecoveryIo(uint32_t device_index, SimDuration latency);
  // Delivers AckDrain to the device (with transient retry), subject to
  // injected ack loss and node outage. True — and counted in drains_acked —
  // when the device accepted the ack; a lost ack leaves the mDisk in
  // kDraining limbo until a resync re-sends it.
  bool SendAckDrain(uint32_t device_index, MinidiskId mdisk);
  // True while `device_index`'s node is under an injected outage.
  bool NodeOut(uint32_t device_index) const {
    return outage_node_ >= 0 &&
           node_of_device(device_index) == static_cast<uint32_t>(outage_node_);
  }

  // The end-to-end checksum verdict on the last read from `device_index`:
  // folds the device FTL's silent-corruption counter into
  // integrity_detected and returns how many corrupt fpage reads that read
  // performed. Nonzero means the delivered payload fails its group's
  // checksum — the codec guarantees a corrupt observation never verifies.
  // Called after every device read so the accounting is exact even when a
  // range read aborts partway.
  uint64_t ObserveCorruption(uint32_t device_index);

  bool QueueingEnabled() const { return queueing_; }
  DeviceQueue* Queue(uint32_t device_index) {
    return devices_[device_index].device->queue();
  }
  // Ends a foreground op: reports `cost` as its simulated service time,
  // feeds the brownout guard, and counts the op toward maintenance.
  void FinishForegroundOp(SimDuration cost, SimDuration* cost_ns);
  // Ends a foreground op refused at queue admission: counts the shed and its
  // `wait_ns` of queue wait, finishes the op at `cost`, and returns
  // kUnavailable naming `what`.
  Status ShedForegroundOp(bool write, uint64_t wait_ns, SimDuration cost,
                          SimDuration* cost_ns, const char* what);

  // Emits an instant trace event (no-op without a recorder).
  void TraceInstant(const char* name) const;
  // Adds the counters and gauges both schemes export, under
  // "<prefix><name>.", plus every device's "<prefix>ssd.*" subtree and the
  // cluster injector's "<prefix>cluster_faults.*".
  void CollectCoreMetrics(MetricRegistry& registry,
                          const std::string& prefix) const;
  // Groups not lost whose live units reach / fall short of the full width.
  uint64_t groups_at_full_width() const;
  uint64_t groups_below_full_width() const;

  // Runs `op`, retrying kUnavailable per the scheme's RetryPolicy.
  template <typename Op>
  auto WithTransientRetry(Op op) -> decltype(op()) {
    auto result = op();
    if (ResultCode(result) != StatusCode::kUnavailable) {
      return result;
    }
    ClusterStats& stats = shared_stats();
    for (uint32_t retry = 0; ResultCode(result) == StatusCode::kUnavailable &&
                             retry < traits_.retry.max_retries;
         ++retry) {
      ++stats.transient_retries;
      // Retry r waits base << r, with the shift capped (saturating) so high
      // retry counts cannot wrap the accumulated backoff.
      stats.backoff_ns +=
          CappedBackoffNs(traits_.retry.backoff_base_ns, retry,
                          traits_.retry.backoff_max_shift);
      result = op();
    }
    if (ResultCode(result) == StatusCode::kUnavailable) {
      ++stats.transient_giveups;
    }
    return result;
  }

  Rng rng_;
  ChecksumCodec codec_;
  const uint32_t k_;
  const uint32_t width_;
  uint64_t unit_opages_ = 0;
  std::vector<DeviceState> devices_;
  std::vector<UnitGroup> groups_;
  // Group ids awaiting repair.
  std::deque<uint64_t> pending_repairs_;
  // Groups whose repair found no eligible target; retried only when the
  // cluster's placement landscape changes (new events, maintenance), not on
  // every foreground operation.
  std::vector<uint64_t> waiting_capacity_;
  bool bootstrapped_ = false;
  // ---- Queueing & graceful degradation state ----
  uint64_t sched_clock_ns_ = 0;  // simulated arrival clock (queueing only)
  std::unique_ptr<BrownoutController> brownout_;
  // ForceReconcile overrides the brownout deferral and the repair admission
  // gate: tests and soaks use it to assert convergence, so it must drain.
  bool reconcile_override_ = false;
  // ---- Trace (optional, not owned) ----
  TraceRecorder* trace_ = nullptr;
  uint32_t trace_tid_ = 0;
  uint64_t trace_time_us_ = 0;  // stamp for emitted trace events

 private:
  static StatusCode ResultCode(const Status& status) { return status.code(); }
  template <typename T>
  static StatusCode ResultCode(const StatusOr<T>& result) {
    return result.status().code();
  }

  // One pass over pending_repairs_ (see the .cc); returns how many units
  // were re-created.
  uint64_t RunRepairPass();
  void HandleMdiskCreated(uint32_t device_index, MinidiskId mdisk);
  // The unit at (device, mdisk, slot) of `group` is gone with its mDisk:
  // mark it lost, then declare the group lost (fewer than k readable units)
  // or queue it for repair.
  void LoseUnit(uint32_t device_index, MinidiskId mdisk, uint32_t slot,
                uint64_t group);
  // Claims a free slot for `group`'s unit, so later placements in the same
  // event wave cannot double-book it.
  void ClaimSlot(const SlotRef& target, uint64_t group);
  // After `group` reached full width, releases its draining units (acking
  // drains whose last pending unit this was).
  void ReleaseDrainingUnits(UnitGroup& group);
  // All-or-nothing kForegroundWrite admission over WriteGroup's targets;
  // `*extra_ns` receives the max over them of wait + shed-retry backoff
  // (the fan-out is parallel).
  bool AdmitWriteFanOut(const UnitGroup& group, uint32_t data_unit,
                        uint64_t* extra_ns);
  // WriteGroup's target order: after the data unit comes unit k, then each
  // following unit.
  uint32_t NextWriteTarget(uint32_t unit, uint32_t data_unit) const {
    return unit == data_unit ? k_ : unit + 1;
  }
  // Parked repairs (no target at the time) get another shot.
  void RequeueWaiting();
  // The mDisks the cluster tracks on a device, sorted: handlers mutate the
  // slot maps, and unordered_map order must never steer the simulation.
  std::vector<MinidiskId> TrackedMdisks(uint32_t device_index) const;
  // True while `device_index` is flagged by proactive drain and reachable.
  bool Evacuating(uint32_t device_index) const;
  // Feeds the brownout controller; no-op when brownout is off.
  void RecordForegroundLatency(uint64_t latency_ns) {
    if (brownout_ != nullptr) {
      brownout_->RecordForeground(latency_ns);
    }
  }
  // Counts one foreground op and runs a maintenance tick when one is due.
  void MaybeRunMaintenance();
  // In debug builds, aborts when CheckInvariants fails after a repair wave:
  // a violation there is a cluster bug, not an injected fault.
  void DebugCheckInvariants() const;

  // Outage lottery / rejoin countdown, suspect windows, ReconcileAll,
  // parked-repair retry and the proactive drain scan; runs every
  // maintenance_interval_ops_ foreground ops.
  void MaintenanceTick();
  // Diffs device-reported mDisk state against cluster bookkeeping and
  // repairs discrepancies (missed kCreated/kDraining/kDecommissioned, lost
  // AckDrain). Also the suspect-window interception point: a transiently
  // dark device with a grace window configured opens (or keeps) its window
  // instead of being treated as failed. Returns the number of repairs.
  uint64_t ResyncDevice(uint32_t device_index);
  // ResyncDevice over every reachable device.
  void ReconcileAll();
  // Ticks open suspect windows: resolves devices that returned, declares
  // losses for windows that expired. Runs first in every maintenance tick.
  void UpdateSuspectWindows();
  // A suspect device restarted within its window: drain its re-announcement
  // events, declare mDisks that did not survive lost, reconcile every unit
  // the cluster still records on the rest (ReconcileReturnedUnit), then
  // resync whatever else changed while it was dark.
  void ResolveSuspect(uint32_t device_index);
  // Slot `slot` of a returned suspect device's surviving mDisk still maps
  // `group`: keep the unit if it is fresh (not stale, no rolled-back LBA),
  // otherwise retire it for repair — unless the group is at its retention
  // floor, where stale bytes beat no bytes.
  void ReconcileReturnedUnit(uint32_t device_index, MinidiskId mdisk,
                             uint32_t slot, uint64_t group);
  // Flags devices whose health crossed drain_health_threshold, runs one
  // migration pass, and records completed evacuations. A no-op at
  // threshold 0.
  void ProactiveDrainTick();
  // Walks groups in id order and moves every live, non-draining unit off
  // devices Evacuating(), counting drain_migrations_parked for moves that
  // must retry next tick.
  void MigrateOffFlaggedDevices();
  // Moves one unit onto a PickTarget-chosen slot (real read + writes,
  // drain_* accounted, admission-controlled under OpClass::kRecovery) and
  // repoints its record in place. False when parked (no target, shed, or
  // the copy aborted); a source that fails its checksum goes to the
  // reactive repair path instead.
  bool MigrateUnitOff(UnitGroup& group, UnitLocation& unit);

  SchemeTraits traits_;
  // Topology, the queueing switch and the maintenance schedule, fixed at
  // set-up so the per-op helpers need no virtual call.
  uint32_t nodes_ = 0;
  uint32_t devices_per_node_ = 1;
  uint32_t nodes_per_rack_ = 0;
  bool queueing_ = false;
  bool maintenance_dormant_ = true;
  // Effective tick interval: maintenance_interval_ops, or the auto default
  // (256) when that is 0.
  uint64_t maintenance_interval_ops_ = 256;
  uint64_t initial_capacity_bytes_ = 0;
  // Units re-created by repair passes so far (ForceReconcile's progress
  // measure).
  uint64_t units_repaired_ = 0;
  // Injected node outage: at most one node is out at a time.
  int32_t outage_node_ = -1;
  uint32_t outage_ticks_left_ = 0;
  uint64_t ops_since_maintenance_ = 0;
};

}  // namespace salamander

#endif  // SALAMANDER_DIFS_CLUSTER_CORE_H_
