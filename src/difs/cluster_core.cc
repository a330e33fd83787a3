#include "difs/cluster_core.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "telemetry/collect.h"

namespace salamander {

ClusterCore::ClusterCore(const SchemeTraits& traits, uint32_t k,
                         uint32_t width, uint64_t seed)
    : rng_(seed ^ traits.rng_salt),
      codec_(seed ^ 0xc8ec5a17c8ec5a17ULL),
      k_(k),
      width_(width),
      traits_(traits) {
  assert(k_ >= 1 && width_ >= k_);
}

void ClusterCore::SetUpDevices(uint32_t nodes, uint64_t unit_opages,
                               const DeviceFactory& device_factory) {
  const ClusterConfig& config = shared_config();
  nodes_ = nodes;
  unit_opages_ = unit_opages;
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

void ClusterCore::ProcessEvents() {
  // Repair I/O of this wave; only repair passes with work write any, so the
  // count starts at the first one.
  bool repairing = false;
  uint64_t wave_start = 0;
  for (;;) {
    size_t events = 0;
    for (uint32_t i = 0; i < devices_.size(); ++i) {
      events += ApplyDeviceEvents(i);
    }
    if (events > 0) {
      // The placement landscape changed; parked repairs get another shot.
      RequeueWaiting();
    }
    if (pending_repairs_.empty()) {
      break;
    }
    if (!repairing) {
      repairing = true;
      wave_start = scheme_counters().repair_writes;
    }
    const uint64_t repaired = RunRepairPass();
    units_repaired_ += repaired;
    if (repaired == 0) {
      break;
    }
  }
  const uint64_t wave =
      repairing ? scheme_counters().repair_writes - wave_start : 0;
  if (wave > 0) {
    ClusterStats& stats = shared_stats();
    ++stats.recovery_waves;
    stats.max_wave_recovery_opages =
        std::max(stats.max_wave_recovery_opages, wave);
    if (trace_ != nullptr) {
      TraceInstant("recovery_wave");
      trace_->CounterSample("recovery_wave_opages", trace_time_us_,
                            static_cast<double>(wave), trace_tid_);
    }
    DebugCheckInvariants();
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
      LoseUnit(device_index, mdisk, slot, static_cast<uint64_t>(ref));
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
                             SlotRef* out) {
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
              *out = SlotRef{.device = device_index, .mdisk = mdisk,
                             .slot = slot};
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

void ClusterCore::ClaimSlot(const SlotRef& target, uint64_t group) {
  DeviceState& state = devices_[target.device];
  state.slots[target.mdisk][target.slot] = static_cast<int64_t>(group);
  --state.free_slot_count;
}

void ClusterCore::ReleaseSlot(uint32_t device_index, MinidiskId mdisk,
                              uint32_t slot, uint64_t group) {
  DeviceState& state = devices_[device_index];
  const auto it = state.slots.find(mdisk);
  if (it == state.slots.end() ||
      it->second[slot] != static_cast<int64_t>(group)) {
    return;  // mDisk decommissioned meanwhile: HandleMdiskLoss dropped it
  }
  if (state.draining_pending.count(mdisk) == 0) {
    it->second[slot] = kFreeSlot;
    ++state.free_slot_count;
    return;
  }
  // The mDisk started draining while the slot was occupied (a copy's own
  // wear can trigger the drain mid-flight): release it as a drained slot.
  it->second[slot] = kUnavailableSlot;
  ReleaseDrainingSlot(device_index, mdisk);
}

void ClusterCore::ReleaseDrainingSlot(uint32_t device_index,
                                      MinidiskId mdisk) {
  DeviceState& state = devices_[device_index];
  auto pending_it = state.draining_pending.find(mdisk);
  if (pending_it != state.draining_pending.end() &&
      --pending_it->second == 0) {
    state.draining_pending.erase(pending_it);
    state.slots.erase(mdisk);
    SendAckDrain(device_index, mdisk);
  }
}

void ClusterCore::ReleaseDrainingUnits(UnitGroup& group) {
  for (UnitLocation& unit : group.units) {
    if (unit.live && unit.draining) {
      unit.live = false;
      ReleaseSlot(unit.device, unit.mdisk, unit.slot, group.id);
    }
  }
}

// ---------------------------------------------------------------------------
// Groups and units: bootstrap, foreground writes, loss and retirement
// ---------------------------------------------------------------------------

Status ClusterCore::Bootstrap() {
  if (bootstrapped_) {
    return FailedPreconditionError("Bootstrap: already bootstrapped");
  }
  bootstrapped_ = true;
  ClusterStats& stats = shared_stats();
  const uint64_t target_groups = static_cast<uint64_t>(
      static_cast<double>(free_slots()) * shared_config().fill_fraction /
      width_);
  groups_.reserve(target_groups);
  for (uint64_t id = 0; id < target_groups; ++id) {
    UnitGroup group;
    group.id = id;
    group.checksum = codec_.Stamp(id, group.generation);
    std::vector<uint32_t> used_nodes;
    for (uint32_t u = 0; u < width_; ++u) {
      SlotRef target;
      if (!PickTarget(used_nodes, &target)) {
        // The cluster cannot hold another full-width group: roll back the
        // partial placement and stop.
        for (const UnitLocation& placed : group.units) {
          ReleaseSlot(placed.device, placed.mdisk, placed.slot, id);
        }
        return OkStatus();
      }
      ClaimSlot(target, id);
      used_nodes.push_back(node_of_device(target.device));
      group.units.push_back(UnitLocation{.device = target.device,
                                         .mdisk = target.mdisk,
                                         .slot = target.slot,
                                         .live = true});
    }
    groups_.push_back(std::move(group));
    // Initial load: write every LBA of every unit. Failures are tolerated —
    // if the load itself wears out an mDisk, the event wave below repairs
    // the affected groups.
    for (const UnitLocation& unit : groups_.back().units) {
      for (uint64_t offset = 0; offset < unit_opages_; ++offset) {
        if (WriteUnit(unit, offset).ok()) {
          ++stats.foreground_device_writes;
        }
      }
    }
    ProcessEvents();
  }
  return OkStatus();
}

StatusOr<SimDuration> ClusterCore::WriteUnit(const UnitLocation& unit,
                                             uint64_t offset) {
  if (!unit.live || unit.draining) {
    return FailedPreconditionError("unit not writable");
  }
  if (NodeOut(unit.device)) {
    // Unreachable node: the write is skipped, not queued; the unit goes
    // stale and resync-driven repair handles it if the mDisk dies out.
    ++shared_stats().outage_write_skips;
    return UnavailableError("WriteUnit: node under outage");
  }
  SsdDevice& device = *devices_[unit.device].device;
  return WithTransientRetry([&] {
    return device.Write(unit.mdisk, unit.slot * unit_opages_ + offset);
  });
}

bool ClusterCore::AdmitWriteFanOut(const UnitGroup& group, uint32_t data_unit,
                                   uint64_t* extra_ns) {
  // The unit writes fan out in parallel, so the op's queue delay is the max
  // across its target devices. Admission is all-or-nothing: the first
  // refusal sheds the whole op before any unit is touched — a partial
  // fan-out would leave stale replicas or parity out of sync with data.
  uint64_t extra = 0;
  bool admitted = true;
  for (uint32_t u = data_unit; admitted && u < group.units.size();
       u = NextWriteTarget(u, data_unit)) {
    const UnitLocation& unit = group.units[u];
    if (!unit.live || unit.draining || NodeOut(unit.device)) {
      continue;  // WriteUnit refuses these targets anyway
    }
    const QueueAdmission admission =
        Queue(unit.device)->Admit(OpClass::kForegroundWrite, sched_clock_ns_);
    extra = std::max(extra, admission.wait_ns + admission.backoff_ns);
    admitted = admission.admitted;
  }
  *extra_ns = extra;
  return admitted;
}

Status ClusterCore::WriteGroup(UnitGroup& group, uint32_t data_unit,
                               uint64_t offset, SimDuration* cost_ns,
                               uint64_t* logical_writes) {
  ClusterStats& stats = shared_stats();
  uint64_t sched_extra_ns = 0;  // parallel admission wait + shed backoff
  if (QueueingEnabled()) {
    sched_clock_ns_ += shared_config().sched.arrival_interval_ns;
    if (!AdmitWriteFanOut(group, data_unit, &sched_extra_ns)) {
      // Shed whole: no unit was touched, so the group's generation,
      // checksum and unit stamps all stay consistent.
      return ShedForegroundOp(/*write=*/true, sched_extra_ns, sched_extra_ns,
                              cost_ns, traits_.write_shed_message);
    }
  }
  const uint64_t backoff_before = stats.backoff_ns;
  SimDuration slowest = 0;
  // The write changes the group's contents: restamp its checksum.
  ++group.generation;
  group.checksum = codec_.Stamp(group.id, group.generation);
  for (uint32_t u = data_unit; u < group.units.size();
       u = NextWriteTarget(u, data_unit)) {
    UnitLocation& unit = group.units[u];
    if (!unit.live) {
      continue;
    }
    // Failures are tolerated: the unit's device just decommissioned or
    // bricked and the event wave below repairs the group. A unit that
    // misses the write keeps its old generation and is marked stale.
    auto write = WriteUnit(unit, offset);
    unit.stale = !write.ok();
    if (!write.ok()) {
      continue;
    }
    unit.generation = group.generation;
    ++stats.foreground_device_writes;
    if (QueueingEnabled()) {
      Queue(unit.device)->Complete(OpClass::kForegroundWrite, write.value());
    }
    // The logical write completes when the slowest unit write does.
    slowest = std::max(slowest, write.value());
  }
  const SimDuration total =
      slowest + (stats.backoff_ns - backoff_before) + sched_extra_ns;
  if (cost_ns != nullptr) {
    *cost_ns = total;
  }
  stats.sched_wait_ns += sched_extra_ns;
  RecordForegroundLatency(total);
  ++*logical_writes;
  ProcessEvents();
  MaybeRunMaintenance();
  return OkStatus();
}

UnitLocation* ClusterCore::FindLiveUnit(UnitGroup& group,
                                        uint32_t device_index,
                                        MinidiskId mdisk, uint32_t slot) {
  for (UnitLocation& unit : group.units) {
    if (unit.live && unit.device == device_index && unit.mdisk == mdisk &&
        unit.slot == slot) {
      return &unit;
    }
  }
  return nullptr;
}

std::vector<uint32_t> ClusterCore::SpreadNodes(const UnitGroup& group) const {
  // A unit on an out node still excludes its node (the data is there, just
  // unreachable); a draining replica does not — it is about to vanish, so
  // its node may host the replacement.
  std::vector<uint32_t> nodes;
  for (const UnitLocation& unit : group.units) {
    if (unit.live && !unit.draining) {
      nodes.push_back(node_of_device(unit.device));
    }
  }
  return nodes;
}

void ClusterCore::LoseUnit(uint32_t device_index, MinidiskId mdisk,
                           uint32_t slot, uint64_t group_id) {
  UnitGroup& group = groups_[group_id];
  SchemeCounters counters = scheme_counters();
  if (UnitLocation* unit = FindLiveUnit(group, device_index, mdisk, slot)) {
    unit->live = false;
    ++counters.units_lost;
    if (unit->draining) {
      // The grace window closed (forced finish or brick) before this group
      // was repaired off the draining mDisk.
      ++shared_stats().drain_window_losses;
    }
  }
  if (group.lost) {
    return;
  }
  if (group.readable_units() < k_) {
    group.lost = true;
    ++counters.groups_lost;
    SALA_LOG(kWarning) << traits_.group << " " << group.id << " "
                       << traits_.lost_log;
    TraceInstant(traits_.group_lost_event);
  } else if (group.live_units() < width_) {
    pending_repairs_.push_back(group.id);
  }
}

bool ClusterCore::MarkUnitBad(UnitGroup& group, UnitLocation& unit,
                              bool enqueue) {
  if (!unit.live) {
    return false;
  }
  if (!group.lost && group.readable_units() <= k_) {
    ++scheme_counters().retained;
    return false;
  }
  ++shared_stats().integrity_marked_bad;
  TraceInstant(traits_.unit_bad_event);
  RetireUnit(group, unit, enqueue);
  return true;
}

void ClusterCore::RetireUnit(UnitGroup& group, UnitLocation& unit,
                             bool enqueue) {
  ReleaseSlot(unit.device, unit.mdisk, unit.slot, group.id);
  unit.live = false;
  ++scheme_counters().units_lost;
  if (!group.lost && enqueue && group.live_units() < width_) {
    pending_repairs_.push_back(group.id);
  }
}

// ---------------------------------------------------------------------------
// Repair and drain migration
// ---------------------------------------------------------------------------

uint64_t ClusterCore::RunRepairPass() {
  SchemeCounters counters = scheme_counters();
  if (brownout_ != nullptr && brownout_->active() && !reconcile_override_ &&
      !pending_repairs_.empty()) {
    // Brownout: foreground p99 is over the SLO, so background repair yields
    // the spindle. The backlog stays queued and drains once a window
    // recovers (or ForceReconcile demands convergence).
    ++counters.brownout_deferrals;
    return 0;
  }
  uint64_t repaired = 0;
  // Process only the entries present at pass start; repairs can enqueue
  // more (by wearing the target), which the caller's loop handles next pass.
  std::vector<uint64_t> batch(pending_repairs_.begin(),
                              pending_repairs_.end());
  pending_repairs_.clear();
  if (shared_config().criticality_ordered_recovery) {
    // Repair-storm triage: groups closest to loss (fewest readable units,
    // ties by id) get the pass's placement slots and queue room first.
    // Criticality is snapshotted at batch start, and the sort is stable, so
    // the ordering is fully deterministic. The SET of groups healed matches
    // FIFO when capacity suffices, but individual placements may differ —
    // repairs consume the shared placement draws in batch order.
    std::stable_sort(batch.begin(), batch.end(), [&](uint64_t a, uint64_t b) {
      const uint32_t ra = groups_[a].readable_units();
      const uint32_t rb = groups_[b].readable_units();
      if (ra != rb) {
        return ra < rb;
      }
      return a < b;
    });
  }
  for (const uint64_t id : batch) {
    UnitGroup& group = groups_[id];
    // Bring the group back to full width, one unit at a time.
    while (!group.lost && group.live_units() < width_) {
      const uint32_t live_before = group.live_units();
      if (!RepairOneUnit(id)) {
        break;
      }
      ++repaired;
      if (group.live_units() <= live_before) {
        // The repair succeeded but retired a corrupt source in the same
        // call: net-zero progress. With every source failing its checksum
        // (pathological blanket corruption) this would loop forever.
        break;
      }
    }
    if (!group.lost && group.live_units() < width_) {
      // Park it until the placement landscape changes (ProcessEvents
      // re-queues parked groups when new events arrive).
      ++counters.repair_deferred;
      waiting_capacity_.push_back(id);
    }
  }
  return repaired;
}

bool ClusterCore::ReadCopySource(const UnitLocation& unit, uint64_t* reads) {
  // Latency and traffic accounting only: the simulator carries no payload
  // bytes, so the copy's content is tracked logically.
  SsdDevice& device = *devices_[unit.device].device;
  auto read = WithTransientRetry([&] {
    return device.ReadRange(unit.mdisk, unit.slot * unit_opages_,
                            unit_opages_);
  });
  if (!read.ok()) {
    ++shared_stats().uncorrectable_reads;
    return false;
  }
  *reads += unit_opages_;
  CompleteRecoveryIo(unit.device, read.value().latency);
  return true;
}

bool ClusterCore::WriteCopyTarget(const SlotRef& target, uint64_t group,
                                  uint64_t* writes) {
  // Claim the slot first so placements made while the copy's events are
  // applied cannot double-book it.
  ClaimSlot(target, group);
  SsdDevice& device = *devices_[target.device].device;
  const uint64_t base = target.slot * unit_opages_;
  SimDuration copy_write_ns = 0;
  for (uint64_t offset = 0; offset < unit_opages_; ++offset) {
    auto write = WithTransientRetry(
        [&] { return device.Write(target.mdisk, base + offset); });
    if (!write.ok()) {
      // Target died mid-copy (its own wear, or the write's wear): abandon.
      // The events just surfaced may have decommissioned the mDisk (its
      // slot map is gone) or started draining it (release as drained).
      ApplyDeviceEvents(target.device);
      ReleaseSlot(target.device, target.mdisk, target.slot, group);
      return false;
    }
    copy_write_ns += write.value();
    ++*writes;
  }
  // The whole copy occupies the target's queue as one recovery-class op.
  CompleteRecoveryIo(target.device, copy_write_ns);
  return true;
}

bool ClusterCore::RepairUnit(uint64_t group_id, const SlotRef& target,
                             uint32_t unit_index) {
  SchemeCounters counters = scheme_counters();
  if (!WriteCopyTarget(target, group_id, &counters.repair_writes)) {
    return false;
  }
  UnitGroup& group = groups_[group_id];
  const UnitLocation unit{.device = target.device,
                          .mdisk = target.mdisk,
                          .slot = target.slot,
                          .live = true,
                          .generation = group.generation};
  if (unit_index == kAppendUnit) {
    // Dead records can never match a future event; prune them before
    // adding the new one so they do not accumulate.
    std::erase_if(group.units, [](const UnitLocation& u) { return !u.live; });
    group.units.push_back(unit);
  } else {
    group.units[unit_index] = unit;
  }
  ++counters.units_repaired;
  if (group.live_units() >= width_) {
    // Full width again: draining copies are no longer needed.
    ReleaseDrainingUnits(group);
  }
  // The copy itself wears the target device; surface any resulting events
  // (possibly including loss of the unit just written).
  ApplyDeviceEvents(target.device);
  return true;
}

void ClusterCore::MigrateOffFlaggedDevices() {
  // MigrateUnitOff repoints the record in place; a parked move retries next
  // tick. Indices are re-checked every iteration because a migration's own
  // wear events can reshape unit state under us.
  ClusterStats& stats = shared_stats();
  for (UnitGroup& group : groups_) {
    if (group.lost) {
      continue;
    }
    for (size_t u = 0; u < group.units.size(); ++u) {
      const UnitLocation& unit = group.units[u];
      if (!unit.live || unit.draining || !Evacuating(unit.device)) {
        continue;
      }
      if (!MigrateUnitOff(group, group.units[u])) {
        ++stats.drain_migrations_parked;
      }
    }
  }
}

bool ClusterCore::MigrateUnitOff(UnitGroup& group, UnitLocation& unit) {
  // Every node holding a spreading unit — including the source's — is
  // excluded, so the move keeps the group node-disjoint and the placement
  // policy sees the same used-node set a repair would.
  SlotRef target;
  if (!PickTarget(SpreadNodes(group), &target)) {
    return false;
  }
  ClusterStats& stats = shared_stats();
  SchemeCounters counters = scheme_counters();
  if (!AdmitRecoveryIo(unit.device) || !AdmitRecoveryIo(target.device)) {
    // Drain I/O rides the recovery class so the priority order and the shed
    // ledger stay intact; the drain-specific sub-counter lets benches report
    // proactive-vs-reactive pressure separately.
    ++counters.repair_sheds;
    ++stats.drain_sched_sheds;
    return false;
  }
  if (!ReadCopySource(unit, &stats.drain_opage_reads)) {
    return false;
  }
  if (ObserveCorruption(unit.device) > 0) {
    // Copying would propagate corruption: hand the unit to the reactive
    // read-repair path instead of migrating it.
    MarkUnitBad(group, unit, /*enqueue=*/true);
    return false;
  }
  if (!WriteCopyTarget(target, group.id, &stats.drain_opage_writes)) {
    return false;
  }
  // Release the source slot and repoint the record in place. The migrated
  // copy keeps its generation and staleness — resync still owns freshness.
  ReleaseSlot(unit.device, unit.mdisk, unit.slot, group.id);
  unit.device = target.device;
  unit.mdisk = target.mdisk;
  unit.slot = target.slot;
  ++counters.units_migrated;
  // The copy wears the target; surface any resulting events (`unit` must
  // not be touched past this point — event handling can reshape the group).
  ApplyDeviceEvents(target.device);
  return true;
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
  ClusterStats& stats = shared_stats();
  if (NodeOut(device_index) ||
      (faults != nullptr && faults->LosesAckDrain())) {
    // The ack never reaches the device: its mDisk stays in kDraining limbo
    // until a later ResyncDevice notices and re-sends.
    ++stats.acks_lost;
    return false;
  }
  SsdDevice& device = *devices_[device_index].device;
  if (!WithTransientRetry([&] { return device.AckDrain(mdisk); }).ok()) {
    return false;
  }
  ++stats.drains_acked;
  return true;
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
      } else if (mstate == MinidiskState::kDraining &&
                 SendAckDrain(device_index, mdisk)) {
        ++repairs;
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
        ReconcileReturnedUnit(device_index, mdisk, slot,
                              static_cast<uint64_t>(ref));
      }
    }
  }
  // The device's remaining resync discrepancies (e.g. a drain it finished
  // while dark) go through the normal path now that it serves again.
  ResyncDevice(device_index);
}

void ClusterCore::ReconcileReturnedUnit(uint32_t device_index,
                                        MinidiskId mdisk, uint32_t slot,
                                        uint64_t group_id) {
  // A unit is fresh iff it missed no write while dark (not stale) and the
  // device reports no rolled-back page in its LBA range (its last pre-crash
  // writes were made durable). Anything else is retired and repaired.
  UnitGroup& group = groups_[group_id];
  UnitLocation* unit = FindLiveUnit(group, device_index, mdisk, slot);
  if (unit == nullptr) {
    return;
  }
  SchemeCounters counters = scheme_counters();
  if (!unit->stale && !devices_[device_index].device->AnyRolledBackInRange(
                          mdisk, slot * unit_opages_, unit_opages_)) {
    ++counters.suspect_revived;
    return;
  }
  ++counters.suspect_stale;
  if (!group.lost && group.readable_units() <= k_) {
    // Retention floor: stale data beats no data. Keep it; a later
    // foreground write (or repair once capacity appears) freshens it.
    return;
  }
  RetireUnit(group, *unit, /*enqueue=*/true);
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
  const auto where = [](uint32_t device, MinidiskId mdisk) {
    return "device " + std::to_string(device) + " mdisk " +
           std::to_string(mdisk);
  };
  // Direction 1: every slot-map entry is backed by exactly one live unit
  // record whose draining flag matches its mDisk's, free-slot counts match
  // what the maps contain, and draining_pending counts the occupied slots of
  // each draining mDisk.
  for (uint32_t d = 0; d < devices_.size(); ++d) {
    const DeviceState& state = devices_[d];
    uint64_t free_count = 0;
    for (const auto& [mdisk, slots] : state.slots) {
      const auto pending_it = state.draining_pending.find(mdisk);
      const bool draining = pending_it != state.draining_pending.end();
      uint32_t occupied = 0;
      for (uint32_t slot = 0; slot < slots.size(); ++slot) {
        const int64_t ref = slots[slot];
        if (ref == kFreeSlot) {
          ++free_count;
          continue;
        }
        if (ref == kUnavailableSlot) {
          continue;
        }
        if (ref < 0 || static_cast<uint64_t>(ref) >= groups_.size()) {
          return InternalError("slot maps unknown group " +
                               std::to_string(ref) + " (device " +
                               std::to_string(d) + ")");
        }
        ++occupied;
        uint32_t matches = 0;
        bool unit_draining = false;
        for (const UnitLocation& u : groups_[ref].units) {
          if (u.live && u.device == d && u.mdisk == mdisk && u.slot == slot) {
            ++matches;
            unit_draining = u.draining;
          }
        }
        if (matches != 1) {
          return InternalError(
              "slot (" + where(d, mdisk) + ", slot " + std::to_string(slot) +
              ") has " + std::to_string(matches) +
              " live unit records for group " + std::to_string(ref));
        }
        if (unit_draining != draining) {
          return InternalError("unit draining flag out of sync on " +
                               where(d, mdisk));
        }
      }
      if (draining && pending_it->second != occupied) {
        return InternalError(where(d, mdisk) + " draining_pending=" +
                             std::to_string(pending_it->second) + " but " +
                             std::to_string(occupied) + " slots occupied");
      }
    }
    if (free_count != state.free_slot_count) {
      return InternalError("device " + std::to_string(d) +
                           " free_slot_count=" +
                           std::to_string(state.free_slot_count) +
                           " but slot maps hold " + std::to_string(free_count));
    }
    for (const auto& [mdisk, pending] : state.draining_pending) {
      if (state.slots.count(mdisk) == 0) {
        return InternalError("draining_pending for unmapped " +
                             where(d, mdisk));
      }
    }
  }
  // Direction 2: every live unit record is backed by its slot, a group's
  // spreading units are node-disjoint — rack-disjoint too when a
  // constraining placement policy never had to fall back — and never exceed
  // its width, and the lost flag agrees with readability.
  const bool racks_disjoint = config.placement != nullptr &&
                              config.placement->Constrains() &&
                              shared_stats().placement_domain_fallbacks == 0;
  for (const UnitGroup& group : groups_) {
    const std::string name =
        std::string(traits_.group) + " " + std::to_string(group.id);
    std::vector<uint32_t> nodes;
    std::vector<uint32_t> racks;
    for (const UnitLocation& u : group.units) {
      if (!u.live) {
        continue;
      }
      const DeviceState& state = devices_[u.device];
      const auto it = state.slots.find(u.mdisk);
      if (it == state.slots.end() ||
          it->second[u.slot] != static_cast<int64_t>(group.id)) {
        return InternalError(name + " live unit not backed by slot map (" +
                             where(u.device, u.mdisk) + ")");
      }
      if (!u.draining) {
        nodes.push_back(node_of_device(u.device));
        racks.push_back(rack_of_device(u.device));
      }
    }
    std::sort(nodes.begin(), nodes.end());
    if (std::adjacent_find(nodes.begin(), nodes.end()) != nodes.end()) {
      return InternalError(name + " has two live units on one node");
    }
    std::sort(racks.begin(), racks.end());
    if (racks_disjoint &&
        std::adjacent_find(racks.begin(), racks.end()) != racks.end()) {
      return InternalError(name +
                           " has two live units in one rack despite zero "
                           "domain fallbacks");
    }
    if (nodes.size() > width_) {
      return InternalError(name + " over its width: " +
                           std::to_string(nodes.size()) + " live units");
    }
    if (group.lost != (group.readable_units() < k_)) {
      return InternalError(name + (group.lost
                                       ? " marked lost but still readable"
                                       : " unreadable but not marked lost"));
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

uint64_t ClusterCore::groups_at_full_width() const {
  return static_cast<uint64_t>(
      std::count_if(groups_.begin(), groups_.end(), [&](const UnitGroup& g) {
        return !g.lost && g.live_units() >= width_;
      }));
}

uint64_t ClusterCore::groups_below_full_width() const {
  return static_cast<uint64_t>(
      std::count_if(groups_.begin(), groups_.end(), [&](const UnitGroup& g) {
        return !g.lost && g.live_units() < width_;
      }));
}

uint64_t ClusterCore::total_bytes_written() const {
  uint64_t total = 0;
  for (const DeviceState& state : devices_) {
    total += state.device->bytes_written();
  }
  return total;
}

}  // namespace salamander
