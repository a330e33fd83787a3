// The cluster core: the fault-tolerance machinery that replication
// (DifsCluster) and erasure coding (EcCluster) share, written once.
//
// The paper's claim is that a diFS's existing redundancy absorbs minidisk
// failures, whatever the redundancy scheme. Everything here is independent
// of how a scheme lays its data out in *units* (replicas of a chunk, cells of
// a stripe), each unit occupying one slot of one mDisk:
//   - the device table, node/rack topology and injected node outages;
//   - mDisk event intake, kCreated registration and resync against device
//     ground truth (dropped events, lost AckDrains);
//   - placement (random start, linear probe, pluggable domain policy);
//   - the maintenance tick: outage lottery, suspect windows for transiently
//     dark devices, reconciliation, and proactive health-driven drain;
//   - queueing/brownout set-up, corruption observation, and the slot-map
//     bookkeeping invariants.
// A scheme keeps its unit layout, foreground fan-out, read paths, repair of
// one unit and drain semantics. It plugs into the core through a few virtual
// hooks that are called only from event and maintenance paths; the per-op
// read/write paths of each scheme stay non-virtual.
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
};

class ClusterCore {
 public:
  using DeviceFactory = std::function<std::unique_ptr<SsdDevice>(uint32_t)>;

  virtual ~ClusterCore() = default;
  ClusterCore(const ClusterCore&) = delete;
  ClusterCore& operator=(const ClusterCore&) = delete;
  ClusterCore& operator=(ClusterCore&&) = delete;

  // Drains device events and runs the scheme's repair passes until a pass
  // makes no progress (also invoked internally by every foreground op).
  virtual void ProcessEvents() = 0;

  // Full reconciliation: resyncs every reachable device against cluster
  // bookkeeping, retries parked repairs, and drives repair to quiescence —
  // even under brownout or admission pressure. Chaos tests call this after a
  // fault burst to assert convergence.
  void ForceReconcile();

  // Cross-checks the slot-map bookkeeping: every slot-map entry is backed by
  // exactly one live unit record and every live unit by its slot, free-slot
  // counts match the maps, live units of a group are node-disjoint (and
  // rack-disjoint when a constraining policy never fell back). kInternal
  // with a description on the first violation. O(cluster); run after every
  // repair wave in debug builds, and by tests/soaks at will.
  virtual Status CheckInvariants() const;

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
  };

  static constexpr int64_t kFreeSlot = -1;
  // Slot on a draining mDisk that can take no new data.
  static constexpr int64_t kUnavailableSlot = -2;

  struct DeviceState {
    std::unique_ptr<SsdDevice> device;
    uint32_t slots_per_mdisk = 0;
    // Per live mDisk: slot -> the scheme's unit ref (>= 0), kFreeSlot, or
    // kUnavailableSlot.
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

  // One live unit record, as the bookkeeping invariants see it.
  struct LiveUnit {
    uint32_t device = 0;
    MinidiskId mdisk = 0;
    uint32_t slot = 0;
    int64_t ref = 0;  // the slot-map entry that backs it
    // Counts toward node-disjointness (false for a draining replica, whose
    // node may already host its replacement).
    bool spreads = true;
  };

  // `seed` is the scheme config's seed.
  ClusterCore(const SchemeTraits& traits, uint64_t seed);
  // Clusters are returned by value.
  ClusterCore(ClusterCore&&) = default;

  // Second construction phase, run from the scheme's constructor body so
  // the scheme's hooks dispatch: builds every device with `device_factory`
  // (slots_per_mdisk = mSize / unit_opages), registers its initial
  // capacity, and sets up queues and the brownout guard.
  void SetUpDevices(uint32_t nodes, uint64_t unit_opages,
                    const DeviceFactory& device_factory);

  // The scheme owns its config and stats; the core works on their shared
  // parts.
  virtual const ClusterConfig& shared_config() const = 0;
  virtual ClusterStats& shared_stats() = 0;
  virtual const ClusterStats& shared_stats() const = 0;

  // ---- Scheme hooks (event and maintenance paths only) ---------------------

  // The unit `ref` at (device, mdisk, slot) is gone with its mDisk: mark it
  // lost, declare its group lost or queue the group for repair.
  virtual void LoseUnit(uint32_t device_index, MinidiskId mdisk,
                        uint32_t slot, int64_t ref) = 0;
  // The mDisk entered kDraining.
  virtual void HandleMdiskDraining(uint32_t device_index,
                                   MinidiskId mdisk) = 0;
  // One pass over pending_repairs_; returns how many units were re-created.
  virtual uint64_t RunRepairPass() = 0;
  // One migration pass: moves live units off every device Evacuating(),
  // counting drain_migrations_parked for moves that must retry next tick.
  virtual void MigrateOffFlaggedDevices() = 0;
  // A suspect device restarted within its window and slot `slot` of its
  // surviving mDisk still maps `ref`: keep the unit if it is fresh (missed
  // no write, no rolled-back LBA), otherwise retire it for repair — unless
  // it is the group's last hope, where stale bytes beat no bytes.
  virtual void ReconcileReturnedUnit(uint32_t device_index, MinidiskId mdisk,
                                     uint32_t slot, int64_t ref) = 0;
  // Hands one AckDrain to the device (loss and outage already ruled out).
  virtual Status DeliverAckDrain(uint32_t device_index, MinidiskId mdisk);
  // Invariant views: the group (chunk/stripe) count, the group a slot ref
  // belongs to, and a group's live units.
  virtual uint64_t unit_groups() const = 0;
  virtual uint64_t GroupOfRef(int64_t ref) const = 0;
  virtual void AppendLiveUnits(uint64_t group,
                               std::vector<LiveUnit>* out) const = 0;

  // ---- Shared machinery ----------------------------------------------------

  // Event loop body of ProcessEvents: applies every device's events,
  // re-arms parked repairs when any arrived, and runs repair passes until
  // one makes no progress.
  void PumpEvents();
  // Returns the number of events processed.
  size_t ApplyDeviceEvents(uint32_t device_index);
  void HandleMdiskCreated(uint32_t device_index, MinidiskId mdisk);
  // The mDisk is gone (decommissioned, bricked, or resynced away): every
  // unit on it is lost (LoseUnit) and its slot map is dropped.
  void HandleMdiskLoss(uint32_t device_index, MinidiskId mdisk);
  // Random start, linear probe over devices with free slots on nodes not in
  // `exclude_nodes`, honoring the placement policy (see the .cc).
  bool PickTarget(const std::vector<uint32_t>& exclude_nodes,
                  uint32_t* device_out, MinidiskId* mdisk_out,
                  uint32_t* slot_out);
  // Claims a free slot for the unit `ref`, so later placements in the same
  // event wave cannot double-book it.
  void ClaimSlot(uint32_t device_index, MinidiskId mdisk, uint32_t slot,
                 int64_t ref);
  // Returns the slot to free capacity if it still holds `ref` (its mDisk may
  // have been decommissioned, and its map dropped, meanwhile).
  void FreeSlot(uint32_t device_index, MinidiskId mdisk, uint32_t slot,
                int64_t ref);
  // Repair and drain copies are admission-controlled like any other I/O,
  // under OpClass::kRecovery: every source read and the target write must
  // find queue room, or the copy sheds whole. Always true without queueing,
  // and under ForceReconcile — convergence beats backpressure there.
  bool AdmitRecoveryIo(uint32_t device_index);
  // Charges a finished repair/drain transfer to the device's queue (no-op
  // where AdmitRecoveryIo admits unconditionally).
  void CompleteRecoveryIo(uint32_t device_index, SimDuration latency);
  // Delivers AckDrain to the device, subject to injected ack loss and node
  // outage. True when the device accepted the ack; a lost ack leaves the
  // mDisk in kDraining limbo until a resync re-sends it.
  bool SendAckDrain(uint32_t device_index, MinidiskId mdisk);
  // Parked repairs (no target at the time) get another shot.
  void RequeueWaiting();
  // The mDisks the cluster tracks on a device, sorted: handlers mutate the
  // slot maps, and unordered_map order must never steer the simulation.
  std::vector<MinidiskId> TrackedMdisks(uint32_t device_index) const;
  // True while `device_index` is flagged by proactive drain and reachable.
  bool Evacuating(uint32_t device_index) const;
  // True while `device_index`'s node is under an injected outage.
  bool NodeOut(uint32_t device_index) const {
    return outage_node_ >= 0 &&
           node_of_device(device_index) == static_cast<uint32_t>(outage_node_);
  }

  // Folds the device FTL's silent-corruption counter into
  // integrity_detected and returns how many corrupt fpage reads the last
  // operation performed. Called after every device read so the accounting
  // is exact even when a range read aborts partway.
  uint64_t ObserveCorruption(uint32_t device_index);

  bool QueueingEnabled() const { return queueing_; }
  DeviceQueue* Queue(uint32_t device_index) {
    return devices_[device_index].device->queue();
  }
  // Feeds the brownout controller; no-op when brownout is off.
  void RecordForegroundLatency(uint64_t latency_ns) {
    if (brownout_ != nullptr) {
      brownout_->RecordForeground(latency_ns);
    }
  }
  // Counts one foreground op and runs a maintenance tick when one is due.
  void MaybeRunMaintenance();
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
  // In debug builds, aborts when CheckInvariants fails after a repair wave:
  // a violation there is a cluster bug, not an injected fault.
  void DebugCheckInvariants() const;
  // Adds the counters and gauges both schemes export, under
  // "<prefix><name>.", plus every device's "<prefix>ssd.*" subtree and the
  // cluster injector's "<prefix>cluster_faults.*".
  void CollectCoreMetrics(MetricRegistry& registry,
                          const std::string& prefix) const;

  Rng rng_;
  ChecksumCodec codec_;
  std::vector<DeviceState> devices_;
  // Group ids (chunks/stripes) awaiting repair.
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
  // Flags devices whose health crossed drain_health_threshold, runs one
  // migration pass, and records completed evacuations. A no-op at
  // threshold 0.
  void ProactiveDrainTick();

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
