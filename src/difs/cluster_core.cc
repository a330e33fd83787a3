#include "difs/cluster_core.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "telemetry/collect.h"

namespace salamander {

ClusterCore::ClusterCore(const SchemeTraits& traits, uint64_t seed)
    : rng_(seed ^ traits.rng_salt),
      codec_(seed ^ 0xc8ec5a17c8ec5a17ULL),
      traits_(traits) {}

void ClusterCore::SetUpDevices(uint32_t nodes, uint64_t unit_opages,
                               const DeviceFactory& device_factory) {
  const ClusterConfig& config = shared_config();
  nodes_ = nodes;
  devices_per_node_ = config.devices_per_node;
  nodes_per_rack_ = config.nodes_per_rack;
  queueing_ = config.sched.enabled();
  const uint32_t total_devices = nodes * config.devices_per_node;
  devices_.reserve(total_devices);
  for (uint32_t i = 0; i < total_devices; ++i) {
    DeviceState state;
    state.device = device_factory(i);
    state.slots_per_mdisk =
        static_cast<uint32_t>(state.device->msize_opages() / unit_opages);
    assert(state.slots_per_mdisk >= 1 && "mDisk smaller than a unit");
    devices_.push_back(std::move(state));
    ApplyDeviceEvents(i);  // initial format events populate the slot maps
    initial_capacity_bytes_ += devices_[i].device->live_capacity_bytes();
  }
  // Auto mode: periodic reconciliation only pays for itself when faults can
  // desynchronize cluster and device state. Without any injector the
  // maintenance path stays completely dormant, so the fault-free RNG
  // schedule (and every bench output) is untouched. Proactive drain samples
  // health on the tick, so its threshold wakes maintenance even in a
  // fault-free cluster.
  maintenance_interval_ops_ = config.maintenance_interval_ops == 0
                                  ? 256
                                  : config.maintenance_interval_ops;
  maintenance_dormant_ =
      config.maintenance_interval_ops == 0 && config.faults == nullptr &&
      !(config.drain_health_threshold > 0.0) &&
      std::none_of(devices_.begin(), devices_.end(),
                   [](const DeviceState& state) {
                     return state.device->faults() != nullptr;
                   });
  if (queueing_) {
    assert(ValidateSchedConfig(config.sched).ok() && "invalid sched config");
    // Per-device jitter streams fork in device-ID order from a dedicated
    // root, so enabling queueing perturbs no other stream and parallel
    // harnesses see the same forks as serial ones.
    Rng sched_root(config.seed ^ 0x5c4ed0ee5c4ed0eeULL);
    for (DeviceState& state : devices_) {
      state.device->ConfigureQueue(config.sched, sched_root.ForkSeed());
    }
    if (config.sched.slo_p99_ns > 0) {
      brownout_ = std::make_unique<BrownoutController>(
          config.sched.slo_p99_ns, config.sched.brownout_window_ops);
    }
  }
}

// ---------------------------------------------------------------------------
// Event handling
// ---------------------------------------------------------------------------

void ClusterCore::PumpEvents() {
  for (;;) {
    size_t events = 0;
    for (uint32_t i = 0; i < devices_.size(); ++i) {
      events += ApplyDeviceEvents(i);
    }
    if (events > 0) {
      // The placement landscape changed; parked repairs get another shot.
      RequeueWaiting();
    }
    const uint64_t repaired = RunRepairPass();
    units_repaired_ += repaired;
    if (repaired == 0) {
      return;
    }
  }
}

size_t ClusterCore::ApplyDeviceEvents(uint32_t device_index) {
  if (NodeOut(device_index)) {
    return 0;  // unreachable node: its events wait until it rejoins
  }
  DeviceState& state = devices_[device_index];
  if (state.device->transiently_dark()) {
    return 0;  // powered off: unreachable, delivers nothing until restart
  }
  const std::vector<MinidiskEvent> events = state.device->TakeEvents();
  for (const MinidiskEvent& event : events) {
    switch (event.type) {
      case MinidiskEventType::kCreated:
        HandleMdiskCreated(device_index, event.mdisk);
        break;
      case MinidiskEventType::kDecommissioned:
        HandleMdiskLoss(device_index, event.mdisk);
        break;
      case MinidiskEventType::kDraining:
        HandleMdiskDraining(device_index, event.mdisk);
        break;
    }
  }
  if (state.device->dropped_events() != state.observed_dropped_events) {
    // Queue overflow dropped lifecycle events (a brick under a full queue
    // drops kDecommissioned): resync against ground truth immediately so no
    // unit is left pointing at capacity that no longer exists.
    state.observed_dropped_events = state.device->dropped_events();
    const uint64_t repairs = ResyncDevice(device_index);
    if (traits_.resync_repairs_are_events) {
      return events.size() + static_cast<size_t>(repairs);
    }
  }
  return events.size();
}

void ClusterCore::HandleMdiskCreated(uint32_t device_index, MinidiskId mdisk) {
  DeviceState& state = devices_[device_index];
  if (state.slots.count(mdisk) != 0) {
    return;  // duplicate delivery (or resync already registered it)
  }
  // A delayed kCreated can arrive after the mDisk has already moved on (or
  // the whole device bricked); registering capacity that no longer exists
  // would corrupt placement, so verify against device ground truth.
  const SsdDevice& device = *state.device;
  if (device.failed() || mdisk >= device.total_minidisks()) {
    return;
  }
  const MinidiskState mstate = device.manager().minidisk(mdisk).state;
  if (mstate != MinidiskState::kLive && mstate != MinidiskState::kDraining) {
    return;  // decommissioned (or never formatted) by the time we heard
  }
  state.slots[mdisk].assign(state.slots_per_mdisk, kFreeSlot);
  state.free_slot_count += state.slots_per_mdisk;
  if (mstate == MinidiskState::kDraining) {
    // Created and already draining (both events in flight): process the
    // drain transition immediately so the slots are never handed out.
    HandleMdiskDraining(device_index, mdisk);
  }
}

void ClusterCore::HandleMdiskLoss(uint32_t device_index, MinidiskId mdisk) {
  DeviceState& state = devices_[device_index];
  auto it = state.slots.find(mdisk);
  if (it == state.slots.end()) {
    return;  // already handled (e.g. decommission then brick replay)
  }
  for (uint32_t slot = 0; slot < it->second.size(); ++slot) {
    const int64_t ref = it->second[slot];
    if (ref == kFreeSlot) {
      --state.free_slot_count;
    } else if (ref != kUnavailableSlot) {  // draining: empty or released
      LoseUnit(device_index, mdisk, slot, ref);
    }
  }
  state.draining_pending.erase(mdisk);
  state.slots.erase(it);
}

void ClusterCore::RequeueWaiting() {
  for (uint64_t group : waiting_capacity_) {
    pending_repairs_.push_back(group);
  }
  waiting_capacity_.clear();
}

std::vector<MinidiskId> ClusterCore::TrackedMdisks(
    uint32_t device_index) const {
  const DeviceState& state = devices_[device_index];
  std::vector<MinidiskId> known;
  known.reserve(state.slots.size());
  for (const auto& [mdisk, slots] : state.slots) {
    known.push_back(mdisk);
  }
  std::sort(known.begin(), known.end());
  return known;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

bool ClusterCore::PickTarget(const std::vector<uint32_t>& exclude_nodes,
                             uint32_t* device_out, MinidiskId* mdisk_out,
                             uint32_t* slot_out) {
  ClusterStats& stats = shared_stats();
  // Random start, linear probe: keeps placement spread without a full scan.
  // The outer domain pass runs only for a constraining placement policy:
  // pass 0 additionally requires the policy to accept the candidate node,
  // pass 1 is the counted fallback to plain node-disjointness. Policies that
  // never constrain (uniform, or none) skip straight to pass 1, sharing the
  // single start draw — so they replay the legacy draw sequence and
  // placements bit-for-bit. With grace-window drains the inner probe runs
  // twice: devices with active drains are visibly dying, so new units land
  // there only when nothing else has space.
  const uint32_t n = static_cast<uint32_t>(devices_.size());
  const uint32_t start = static_cast<uint32_t>(rng_.UniformU64(n));
  const PlacementPolicy* policy = shared_config().placement.get();
  const bool constrained = policy != nullptr && policy->Constrains();
  for (int domain_pass = constrained ? 0 : 1; domain_pass < 2; ++domain_pass) {
    for (int pass = traits_.grace_window_drains ? 0 : 1; pass < 2; ++pass) {
      for (uint32_t probe = 0; probe < n; ++probe) {
        const uint32_t device_index = (start + probe) % n;
        DeviceState& state = devices_[device_index];
        if (state.free_slot_count == 0 || state.device->failed() ||
            NodeOut(device_index)) {
          continue;
        }
        if (state.health_draining) {
          continue;  // being evacuated proactively; placing here would churn
        }
        if (pass == 0 && !state.draining_pending.empty()) {
          continue;  // dying device; only a last resort
        }
        const uint32_t node = node_of_device(device_index);
        if (std::find(exclude_nodes.begin(), exclude_nodes.end(), node) !=
            exclude_nodes.end()) {
          continue;
        }
        if (domain_pass == 0 && !policy->Allows(node, exclude_nodes)) {
          ++stats.placement_domain_rejections;
          continue;
        }
        for (auto& [mdisk, slots] : state.slots) {
          for (uint32_t slot = 0; slot < slots.size(); ++slot) {
            if (slots[slot] == kFreeSlot) {
              *device_out = device_index;
              *mdisk_out = mdisk;
              *slot_out = slot;
              return true;
            }
          }
        }
        // free_slot_count said there was space but none found: accounting
        // drift would be a bug.
        assert(false && "free_slot_count out of sync");
      }
    }
    if (domain_pass == 0) {
      // Every domain-eligible candidate is exhausted; the fallback pass may
      // now co-locate within a rack rather than fail the placement.
      ++stats.placement_domain_fallbacks;
    }
  }
  return false;
}

void ClusterCore::ClaimSlot(uint32_t device_index, MinidiskId mdisk,
                            uint32_t slot, int64_t ref) {
  DeviceState& state = devices_[device_index];
  state.slots[mdisk][slot] = ref;
  --state.free_slot_count;
}

void ClusterCore::FreeSlot(uint32_t device_index, MinidiskId mdisk,
                           uint32_t slot, int64_t ref) {
  DeviceState& state = devices_[device_index];
  const auto it = state.slots.find(mdisk);
  if (it != state.slots.end() && slot < it->second.size() &&
      it->second[slot] == ref) {
    it->second[slot] = kFreeSlot;
    ++state.free_slot_count;
  }
}

// ---------------------------------------------------------------------------
// Repair I/O, drains and corruption
// ---------------------------------------------------------------------------

bool ClusterCore::AdmitRecoveryIo(uint32_t device_index) {
  return !QueueingEnabled() || reconcile_override_ ||
         Queue(device_index)->Admit(OpClass::kRecovery, sched_clock_ns_)
             .admitted;
}

void ClusterCore::CompleteRecoveryIo(uint32_t device_index,
                                     SimDuration latency) {
  if (QueueingEnabled() && !reconcile_override_) {
    Queue(device_index)->Complete(OpClass::kRecovery, latency);
  }
}

bool ClusterCore::SendAckDrain(uint32_t device_index, MinidiskId mdisk) {
  FaultInjector* faults = shared_config().faults.get();
  if (NodeOut(device_index) ||
      (faults != nullptr && faults->LosesAckDrain())) {
    // The ack never reaches the device: its mDisk stays in kDraining limbo
    // until a later ResyncDevice notices and re-sends.
    ++shared_stats().acks_lost;
    return false;
  }
  return DeliverAckDrain(device_index, mdisk).ok();
}

Status ClusterCore::DeliverAckDrain(uint32_t device_index, MinidiskId mdisk) {
  return devices_[device_index].device->AckDrain(mdisk);
}

uint64_t ClusterCore::ObserveCorruption(uint32_t device_index) {
  DeviceState& state = devices_[device_index];
  const uint64_t now = state.device->ftl().stats().silent_corrupt_fpage_reads;
  const uint64_t delta = now - state.observed_silent_corrupt;
  state.observed_silent_corrupt = now;
  if (delta > 0) {
    shared_stats().integrity_detected += delta;
  }
  return delta;
}

bool ClusterCore::Evacuating(uint32_t device_index) const {
  const DeviceState& state = devices_[device_index];
  return state.health_draining && !state.device->failed() &&
         !NodeOut(device_index);
}

void ClusterCore::ProactiveDrainTick() {
  const ClusterConfig& config = shared_config();
  ClusterStats& stats = shared_stats();
  if (config.drain_health_threshold <= 0.0) {
    return;
  }
  if (brownout_ != nullptr && brownout_->active() && !reconcile_override_) {
    // Drain migrations are background traffic like reactive repair: yield
    // to the foreground SLO, retry once a window recovers.
    ++stats.drain_brownout_deferrals;
    return;
  }
  // Flag newly unhealthy devices, in id order (deterministic; HealthScore is
  // a pure read, so the scan draws no RNG).
  bool any_flagged = false;
  for (DeviceState& state : devices_) {
    if (!state.health_draining && !state.device->failed() &&
        state.device->HealthScore(config.drain_pec_horizon) <=
            config.drain_health_threshold) {
      state.health_draining = true;
      ++stats.drain_devices_flagged;
      TraceInstant("health_drain_start");
    }
    any_flagged |= state.health_draining && !state.device->failed();
  }
  if (!any_flagged) {
    return;
  }
  MigrateOffFlaggedDevices();
  // A flagged device with no occupied slots left has been fully evacuated.
  for (DeviceState& state : devices_) {
    if (!state.health_draining || state.health_drain_done ||
        state.device->failed()) {
      continue;
    }
    const bool occupied = std::any_of(
        state.slots.begin(), state.slots.end(), [](const auto& entry) {
          return std::any_of(entry.second.begin(), entry.second.end(),
                             [](int64_t slot) { return slot >= 0; });
        });
    if (!occupied) {
      state.health_drain_done = true;
      ++stats.drain_devices_completed;
    }
  }
}

// ---------------------------------------------------------------------------
// Maintenance and reconciliation
// ---------------------------------------------------------------------------

uint64_t ClusterCore::OpsUntilMaintenanceTick() const {
  if (MaintenanceDormant()) {
    return UINT64_MAX;
  }
  // The tick fires on the op that brings the counter up to the interval.
  return maintenance_interval_ops_ > ops_since_maintenance_
             ? maintenance_interval_ops_ - ops_since_maintenance_
             : 1;
}

void ClusterCore::MaybeRunMaintenance() {
  if (MaintenanceDormant()) {
    return;
  }
  if (++ops_since_maintenance_ >= maintenance_interval_ops_) {
    ops_since_maintenance_ = 0;
    MaintenanceTick();
  }
}

void ClusterCore::FinishForegroundOp(SimDuration cost, SimDuration* cost_ns) {
  if (cost_ns != nullptr) {
    *cost_ns = cost;
  }
  RecordForegroundLatency(cost);
  MaybeRunMaintenance();
}

Status ClusterCore::ShedForegroundOp(bool write, uint64_t wait_ns,
                                     SimDuration cost, SimDuration* cost_ns,
                                     const char* what) {
  ClusterStats& stats = shared_stats();
  ++(write ? stats.sched_write_sheds : stats.sched_read_sheds);
  stats.sched_wait_ns += wait_ns;
  FinishForegroundOp(cost, cost_ns);
  return UnavailableError(what);
}

void ClusterCore::MaintenanceTick() {
  ClusterStats& stats = shared_stats();
  ++stats.maintenance_ticks;
  FaultInjector* faults = shared_config().faults.get();
  if (outage_node_ >= 0) {
    if (--outage_ticks_left_ == 0) {
      // Rejoin: the node's devices are reachable again; the ReconcileAll
      // below replays whatever state changed while it was dark.
      outage_node_ = -1;
      TraceInstant("node_rejoin");
    }
  } else if (faults != nullptr && faults->StartsNodeOutage()) {
    outage_node_ = static_cast<int32_t>(faults->OutageNode(nodes_));
    outage_ticks_left_ = faults->OutageTicks();
    ++stats.node_outages;
    TraceInstant("node_outage");
  }
  UpdateSuspectWindows();
  ReconcileAll();
  // Reconciliation may have changed the placement landscape (new mDisks
  // registered, drains acked): parked repairs get another shot.
  RequeueWaiting();
  // Proactive health-driven drain (no-op at threshold 0) before the final
  // event pass, so migration wear surfaces in the same tick.
  ProactiveDrainTick();
  ProcessEvents();
}

void ClusterCore::ReconcileAll() {
  for (uint32_t i = 0; i < devices_.size(); ++i) {
    if (!NodeOut(i)) {
      ResyncDevice(i);
    }
  }
}

uint64_t ClusterCore::ResyncDevice(uint32_t device_index) {
  const ClusterConfig& config = shared_config();
  ClusterStats& stats = shared_stats();
  if (NodeOut(device_index)) {
    return 0;
  }
  DeviceState& state = devices_[device_index];
  // A transiently dark device with a grace window configured is suspect, not
  // dead: hold all bookkeeping (no loss declarations, no repair) until the
  // window resolves — UpdateSuspectWindows() owns both outcomes. With the
  // window already expired (down_handled) the normal flow below applies,
  // which is the legacy treat-as-brick path.
  if (config.suspect_grace_ticks > 0 && state.device->transiently_dark() &&
      !state.down_handled) {
    if (!state.suspect) {
      state.suspect = true;
      state.suspect_ticks_left = config.suspect_grace_ticks;
      ++stats.suspect_windows_started;
      TraceInstant("suspect_window_open");
    }
    return 0;
  }
  ++stats.resync_passes;
  uint64_t repairs = 0;
  // Pass 1: mDisks the cluster believes in whose device-side state moved on
  // without us hearing (dropped/delayed kDecommissioned or kDraining).
  const SsdDevice& device = *state.device;
  for (MinidiskId mdisk : TrackedMdisks(device_index)) {
    if (device.failed() || mdisk >= device.total_minidisks() ||
        device.manager().minidisk(mdisk).state ==
            MinidiskState::kDecommissioned) {
      HandleMdiskLoss(device_index, mdisk);
      ++repairs;
      continue;
    }
    if (device.manager().minidisk(mdisk).state == MinidiskState::kDraining &&
        state.draining_pending.count(mdisk) == 0) {
      HandleMdiskDraining(device_index, mdisk);
      ++repairs;
    }
  }
  // Pass 2: device-side mDisks the cluster has no record of — a missed
  // kCreated (new capacity), or a drain whose ack was lost after the cluster
  // finished with the mDisk and forgot it.
  if (!device.failed()) {
    for (MinidiskId mdisk = 0; mdisk < device.total_minidisks(); ++mdisk) {
      if (state.slots.count(mdisk) != 0) {
        continue;
      }
      const MinidiskState mstate = device.manager().minidisk(mdisk).state;
      if (mstate == MinidiskState::kLive) {
        HandleMdiskCreated(device_index, mdisk);
        ++repairs;
      } else if (mstate == MinidiskState::kDraining) {
        if (SendAckDrain(device_index, mdisk)) {
          ++stats.drains_acked;
          ++repairs;
        }
      }
    }
  }
  stats.resync_repairs += repairs;
  return repairs;
}

void ClusterCore::UpdateSuspectWindows() {
  ClusterStats& stats = shared_stats();
  for (uint32_t i = 0; i < devices_.size(); ++i) {
    DeviceState& state = devices_[i];
    if (!state.device->failed()) {
      // Serving again: a post-expiry return goes through the normal resync
      // path (its mDisks re-register as fresh capacity), so the outage is no
      // longer "handled" state worth remembering.
      state.down_handled = false;
    }
    if (!state.suspect) {
      continue;
    }
    if (!state.device->transiently_dark()) {
      // Restarted within the window (or upgraded to a brick, in which case
      // the emitted brick events / resync declare the losses right after).
      state.suspect = false;
      state.suspect_ticks_left = 0;
      if (!state.device->failed()) {
        ++stats.suspect_devices_returned;
        ResolveSuspect(i);
      }
      continue;
    }
    if (--state.suspect_ticks_left == 0) {
      // Grace expired: from here the device is treated exactly like a brick.
      state.suspect = false;
      state.down_handled = true;
      ++stats.suspect_windows_expired;
      TraceInstant("suspect_window_expired");
      for (MinidiskId mdisk : TrackedMdisks(i)) {
        HandleMdiskLoss(i, mdisk);
      }
    }
  }
}

void ClusterCore::ResolveSuspect(uint32_t device_index) {
  TraceInstant("suspect_device_returned");
  // The restart queued re-announcements (kCreated per survivor); drain them
  // first. HandleMdiskCreated dedupes against mDisks the cluster still
  // tracks, so this only registers capacity the cluster had forgotten.
  ApplyDeviceEvents(device_index);
  DeviceState& state = devices_[device_index];
  const SsdDevice& device = *state.device;
  for (MinidiskId mdisk : TrackedMdisks(device_index)) {
    if (mdisk >= device.total_minidisks() ||
        device.manager().minidisk(mdisk).state ==
            MinidiskState::kDecommissioned) {
      HandleMdiskLoss(device_index, mdisk);
      continue;
    }
    // Re-found every slot: retiring a unit can finish a drain and drop the
    // mDisk's map.
    for (uint32_t slot = 0;; ++slot) {
      const auto it = state.slots.find(mdisk);
      if (it == state.slots.end() || slot >= it->second.size()) {
        break;
      }
      const int64_t ref = it->second[slot];
      if (ref >= 0) {  // free or unavailable slots store nothing
        ReconcileReturnedUnit(device_index, mdisk, slot, ref);
      }
    }
  }
  // The device's remaining resync discrepancies (e.g. a drain it finished
  // while dark) go through the normal path now that it serves again.
  ResyncDevice(device_index);
}

void ClusterCore::ForceReconcile() {
  // Convergence beats graceful degradation here: chaos tests assert a
  // drained backlog after ForceReconcile, so the brownout deferral (and the
  // repair admission gate) stand aside for its duration.
  reconcile_override_ = true;
  // A few rounds of reconcile + repair: repair can itself change the
  // landscape (wear out a target, finish a drain), so iterate until a round
  // makes no progress. Bounded — parked groups with genuinely no capacity
  // (or capacity behind an outage) stay parked.
  for (int round = 0; round < 8; ++round) {
    ReconcileAll();
    RequeueWaiting();
    const uint64_t repaired_before = units_repaired_;
    ProcessEvents();
    if (units_repaired_ == repaired_before && pending_repairs_.empty()) {
      break;
    }
  }
  reconcile_override_ = false;
}

// ---------------------------------------------------------------------------
// Invariants, telemetry, introspection
// ---------------------------------------------------------------------------

Status ClusterCore::CheckInvariants() const {
  const ClusterConfig& config = shared_config();
  // Direction 1: every slot-map entry is backed by exactly one live unit
  // record, and free-slot counts match what the maps actually contain.
  std::vector<LiveUnit> units;
  for (uint32_t d = 0; d < devices_.size(); ++d) {
    const DeviceState& state = devices_[d];
    uint64_t free_count = 0;
    for (const auto& [mdisk, slots] : state.slots) {
      for (uint32_t slot = 0; slot < slots.size(); ++slot) {
        const int64_t ref = slots[slot];
        if (ref == kFreeSlot) {
          ++free_count;
          continue;
        }
        if (ref == kUnavailableSlot) {
          continue;
        }
        const uint64_t group = GroupOfRef(ref);
        if (ref < 0 || group >= unit_groups()) {
          return InternalError("slot maps unknown unit ref " +
                               std::to_string(ref) + " (device " +
                               std::to_string(d) + ")");
        }
        units.clear();
        AppendLiveUnits(group, &units);
        const auto matches = std::count_if(
            units.begin(), units.end(), [&](const LiveUnit& u) {
              return u.ref == ref && u.device == d && u.mdisk == mdisk &&
                     u.slot == slot;
            });
        if (matches != 1) {
          return InternalError(
              "slot (device " + std::to_string(d) + ", mdisk " +
              std::to_string(mdisk) + ", slot " + std::to_string(slot) +
              ") has " + std::to_string(matches) +
              " live unit records for ref " + std::to_string(ref));
        }
      }
    }
    if (free_count != state.free_slot_count) {
      return InternalError("device " + std::to_string(d) +
                           " free_slot_count=" +
                           std::to_string(state.free_slot_count) +
                           " but slot maps hold " + std::to_string(free_count));
    }
  }
  // Direction 2: every live unit record is backed by its slot, and a
  // group's spreading units are node-disjoint — rack-disjoint too when a
  // constraining placement policy never had to fall back.
  const bool racks_disjoint = config.placement != nullptr &&
                              config.placement->Constrains() &&
                              shared_stats().placement_domain_fallbacks == 0;
  for (uint64_t group = 0; group < unit_groups(); ++group) {
    units.clear();
    AppendLiveUnits(group, &units);
    std::vector<uint32_t> nodes;
    std::vector<uint32_t> racks;
    for (const LiveUnit& u : units) {
      const DeviceState& state = devices_[u.device];
      const auto it = state.slots.find(u.mdisk);
      if (it == state.slots.end() || it->second[u.slot] != u.ref) {
        return InternalError("group " + std::to_string(group) +
                             " live unit not backed by slot map (device " +
                             std::to_string(u.device) + ")");
      }
      if (u.spreads) {
        nodes.push_back(node_of_device(u.device));
        racks.push_back(rack_of_device(u.device));
      }
    }
    std::sort(nodes.begin(), nodes.end());
    if (std::adjacent_find(nodes.begin(), nodes.end()) != nodes.end()) {
      return InternalError("group " + std::to_string(group) +
                           " has two live units on one node");
    }
    std::sort(racks.begin(), racks.end());
    if (racks_disjoint &&
        std::adjacent_find(racks.begin(), racks.end()) != racks.end()) {
      return InternalError("group " + std::to_string(group) +
                           " has two live units in one rack despite zero "
                           "domain fallbacks");
    }
  }
  return OkStatus();
}

void ClusterCore::DebugCheckInvariants() const {
#ifndef NDEBUG
  const Status invariants = CheckInvariants();
  if (!invariants.ok()) {
    SALA_LOG(kError) << "after repair wave: " << invariants;
    assert(false && "cluster invariants violated after repair wave");
  }
#endif
}

void ClusterCore::TraceInstant(const char* name) const {
  if (trace_ != nullptr) {
    trace_->Instant(name, traits_.name, trace_time_us_, trace_tid_);
  }
}

void ClusterCore::CollectCoreMetrics(MetricRegistry& registry,
                                     const std::string& prefix) const {
  const ClusterConfig& config = shared_config();
  const ClusterStats& stats = shared_stats();
  const std::string root = prefix + traits_.name + ".";
  const auto counter = [&](const char* name, uint64_t value) {
    registry.GetCounter(root + name).Add(value);
  };
  counter("drains_started", stats.drains_started);
  counter("drains_acked", stats.drains_acked);
  counter("acks_lost", stats.acks_lost);
  counter("node_outages", stats.node_outages);
  counter("outage_write_skips", stats.outage_write_skips);
  counter("maintenance_ticks", stats.maintenance_ticks);
  counter("integrity.detected", stats.integrity_detected);
  counter("integrity.marked_bad", stats.integrity_marked_bad);
  // Feature instruments only exist when their feature is on, keeping legacy
  // metric exports byte-identical (per-device queue internals land under
  // "<prefix>ssd.sched.*" via SsdDevice::CollectMetrics below).
  if (queueing_) {
    counter("sched.read_sheds", stats.sched_read_sheds);
    counter("sched.write_sheds", stats.sched_write_sheds);
    counter("sched.wait_ns", stats.sched_wait_ns);
    counter("sched.hedged_reads", stats.sched_hedged_reads);
    counter("sched.hedge_wins", stats.sched_hedge_wins);
    if (brownout_ != nullptr) {
      counter("sched.brownout_windows", brownout_->stats().windows);
      counter("sched.brownout_entered", brownout_->stats().entered);
      counter("sched.brownout_exited", brownout_->stats().exited);
      registry.GetGauge(root + "sched.brownout_active")
          .Add(brownout_->active() ? 1.0 : 0.0);
    }
  }
  if (config.suspect_grace_ticks > 0) {
    counter("suspect.windows_started", stats.suspect_windows_started);
    counter("suspect.windows_expired", stats.suspect_windows_expired);
    counter("suspect.devices_returned", stats.suspect_devices_returned);
  }
  if (config.placement != nullptr && config.placement->Constrains()) {
    counter("placement.domain_rejections",
            stats.placement_domain_rejections);
    counter("placement.domain_fallbacks", stats.placement_domain_fallbacks);
  }
  if (config.drain_health_threshold > 0.0) {
    counter("drain.devices_flagged", stats.drain_devices_flagged);
    counter("drain.devices_completed", stats.drain_devices_completed);
    counter("drain.opage_reads", stats.drain_opage_reads);
    counter("drain.opage_writes", stats.drain_opage_writes);
    counter("drain.migrations_parked", stats.drain_migrations_parked);
    counter("drain.brownout_deferrals", stats.drain_brownout_deferrals);
    counter("drain.sched_sheds", stats.drain_sched_sheds);
  }
  registry.GetGauge(root + "alive_devices")
      .Add(static_cast<double>(alive_devices()));
  registry.GetGauge(root + "free_slots")
      .Add(static_cast<double>(free_slots()));
  for (const DeviceState& state : devices_) {
    state.device->CollectMetrics(registry, prefix);
  }
  if (config.faults != nullptr) {
    // Distinct prefix: the per-device injector counters collected by
    // SsdDevice::CollectMetrics live under "<prefix>faults.".
    CollectFaultMetrics(registry, config.faults->stats(),
                        prefix + "cluster_");
  }
}

uint32_t ClusterCore::alive_devices() const {
  uint32_t alive = 0;
  for (const DeviceState& state : devices_) {
    alive += state.device->failed() ? 0 : 1;
  }
  return alive;
}

uint64_t ClusterCore::free_slots() const {
  uint64_t total = 0;
  for (const DeviceState& state : devices_) {
    total += state.free_slot_count;
  }
  return total;
}

uint64_t ClusterCore::live_capacity_bytes() const {
  uint64_t total = 0;
  for (const DeviceState& state : devices_) {
    total += state.device->live_capacity_bytes();
  }
  return total;
}

uint64_t ClusterCore::total_bytes_written() const {
  uint64_t total = 0;
  for (const DeviceState& state : devices_) {
    total += state.device->bytes_written();
  }
  return total;
}

}  // namespace salamander
