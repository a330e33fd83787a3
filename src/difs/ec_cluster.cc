#include "difs/ec_cluster.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace salamander {

EcCluster::EcCluster(const EcConfig& config,
                     const DeviceFactory& device_factory)
    : ClusterCore({.name = "ec",
                   .rng_salt = 0xececececececececULL,
                   .grace_window_drains = false,
                   .resync_repairs_are_events = false},
                  config.seed),
      config_(config) {
  assert(config_.data_cells >= 1);
  assert(config_.parity_cells >= 1);
  assert(config_.data_cells + config_.parity_cells <= 0xff &&
         "cell index must fit the packed slot ref");
  assert(config_.nodes >= config_.data_cells + config_.parity_cells &&
         "need k+m nodes for node-disjoint placement");
  SetUpDevices(config_.nodes, config_.cell_opages, device_factory);
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

void EcCluster::HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) {
  if (devices_[device_index].slots.count(mdisk) == 0) {
    return;  // duplicate delivery: the drain was already processed
  }
  ++stats_.drains_started;
  // Retire every cell on the mDisk and queue its stripe for rebuild — the
  // same bookkeeping a decommission performs, just ahead of the deadline.
  HandleMdiskLoss(device_index, mdisk);
  if (SendAckDrain(device_index, mdisk)) {
    ++stats_.drains_acked;
  }
}

void EcCluster::LoseUnit(uint32_t device_index, MinidiskId mdisk,
                         uint32_t slot, int64_t ref) {
  Stripe& stripe = stripes_[RefStripe(ref)];
  CellLocation& cell = stripe.cells[RefCell(ref)];
  if (cell.live && cell.device == device_index && cell.mdisk == mdisk &&
      cell.slot == slot) {
    cell.live = false;
    ++stats_.cells_lost;
  }
  if (!stripe.lost) {
    if (stripe.live_cells() < config_.data_cells) {
      stripe.lost = true;
      ++stats_.stripes_lost;
      SALA_LOG(kWarning) << "stripe " << stripe.id << " lost more than m cells";
    } else if (stripe.live_cells() <
               config_.data_cells + config_.parity_cells) {
      pending_repairs_.push_back(stripe.id);
    }
  }
}

void EcCluster::ProcessEvents() {
  const uint64_t wave_start = stats_.rebuild_opage_writes;
  PumpEvents();
  if (stats_.rebuild_opage_writes != wave_start) {
    DebugCheckInvariants();
  }
}

// ---------------------------------------------------------------------------
// Rebuild
// ---------------------------------------------------------------------------

uint64_t EcCluster::RunRepairPass() {
  if (brownout_ != nullptr && brownout_->active() && !reconcile_override_ &&
      !pending_repairs_.empty()) {
    // Graceful degradation: rebuild traffic yields to a breached foreground
    // SLO. The queue keeps its entries — the wave just runs later (or under
    // ForceReconcile, which overrides the deferral to guarantee convergence).
    ++stats_.brownout_rebuild_deferrals;
    return 0;
  }
  uint64_t rebuilt = 0;
  // Process only the entries present at pass start; rebuilds can enqueue
  // more (by wearing the target), which the caller's loop handles next pass.
  std::vector<StripeId> batch(pending_repairs_.begin(),
                              pending_repairs_.end());
  pending_repairs_.clear();
  if (config_.criticality_ordered_recovery) {
    // Repair-storm triage: stripes closest to the reconstruction floor
    // (fewest live cells, ties by id) get the pass's placement slots and
    // queue room first. Snapshot order at batch start; only the order within
    // this pass changes, so quiescent outcomes match FIFO exactly.
    std::stable_sort(batch.begin(), batch.end(), [&](StripeId a, StripeId b) {
      const uint32_t la = stripes_[a].live_cells();
      const uint32_t lb = stripes_[b].live_cells();
      if (la != lb) {
        return la < lb;
      }
      return a < b;
    });
  }
  for (const StripeId stripe_id : batch) {
    Stripe& stripe = stripes_[stripe_id];
    if (stripe.lost) {
      continue;
    }
    bool stuck = false;
    while (!stripe.lost &&
           stripe.live_cells() <
               config_.data_cells + config_.parity_cells) {
      const uint32_t live_before = stripe.live_cells();
      if (RebuildOneCell(stripe_id)) {
        ++rebuilt;
        if (stripe.live_cells() <= live_before) {
          // Rebuild succeeded but retired a corrupt source on the way: net-
          // zero progress (blanket corruption would loop forever). Park and
          // retry on the next event wave.
          stuck = true;
          break;
        }
      } else {
        stuck = true;
        break;
      }
    }
    if (stuck && !stripe.lost &&
        stripe.live_cells() < config_.data_cells + config_.parity_cells) {
      ++stats_.rebuild_deferred;
      waiting_capacity_.push_back(stripe_id);
    }
  }
  return rebuilt;
}

bool EcCluster::RebuildOneCell(StripeId stripe_id) {
  Stripe& stripe = stripes_[stripe_id];
  // Outer retry: a source whose read comes back corrupt is retired (it is
  // itself reconstructable from parity) and reconstruction restarts with a
  // fresh source set. Bounded — each retry permanently removes a live cell.
  for (;;) {
    // Reconstruction needs any k live cells; the rebuilt cell must land on a
    // node hosting none of the stripe's live cells.
    std::vector<CellLocation*> sources;
    std::vector<uint32_t> exclude_nodes;
    uint32_t missing_cell = UINT32_MAX;
    for (CellLocation& cell : stripe.cells) {
      if (cell.live) {
        exclude_nodes.push_back(node_of_device(cell.device));
        if (sources.size() < config_.data_cells && !NodeOut(cell.device)) {
          sources.push_back(&cell);
        }
      } else if (missing_cell == UINT32_MAX) {
        missing_cell = cell.cell;
      }
    }
    if (missing_cell == UINT32_MAX ||
        sources.size() < config_.data_cells) {
      return false;
    }
    uint32_t target_device = 0;
    MinidiskId target_mdisk = 0;
    uint32_t target_slot = 0;
    if (!PickTarget(exclude_nodes, &target_device, &target_mdisk,
                    &target_slot)) {
      return false;
    }
    // Any refusal sheds the whole attempt and the stripe parks in
    // waiting_capacity_ for a later wave (deferral machinery, not loss).
    bool admitted = true;
    for (size_t i = 0; admitted && i < sources.size(); ++i) {
      admitted = AdmitRecoveryIo(sources[i]->device);
    }
    if (!admitted || !AdmitRecoveryIo(target_device)) {
      ++stats_.sched_rebuild_sheds;
      return false;
    }
    DeviceState& target_state = devices_[target_device];
    const int64_t ref = PackRef(stripe_id, missing_cell);
    ClaimSlot(target_device, target_mdisk, target_slot, ref);
    const auto release_target = [&] {
      FreeSlot(target_device, target_mdisk, target_slot, ref);
    };

    // Read k surviving cells in full: the k-fold reconstruction traffic.
    bool retry = false;
    for (CellLocation* source : sources) {
      auto read = devices_[source->device].device->ReadRange(
          source->mdisk,
          static_cast<uint64_t>(source->slot) * config_.cell_opages,
          config_.cell_opages);
      if (read.ok()) {
        stats_.rebuild_opage_reads += config_.cell_opages;
        CompleteRecoveryIo(source->device, read.value().latency);
      }
      if (ObserveCorruption(source->device) > 0) {
        const uint64_t observed = codec_.CorruptObservation(stripe.checksum);
        if (!ChecksumCodec::Verify(stripe.checksum, observed) &&
            MarkCellBad(stripe, *source, /*enqueue=*/false)) {
          // Feeding a silently-corrupt cell into reconstruction would bake
          // the corruption into the rebuilt cell: drop the source and start
          // over (the rebuild loop already owns this stripe — no re-enqueue,
          // or blanket corruption would keep the queue alive forever). If
          // MarkCellBad refused (stripe at the reconstruction floor),
          // proceed — corrupt bytes beat no bytes.
          release_target();
          retry = true;
          break;
        }
      }
    }
    if (retry) {
      continue;
    }

    // Write the reconstructed cell.
    CellLocation rebuilt{.cell = missing_cell,
                         .device = target_device,
                         .mdisk = target_mdisk,
                         .slot = target_slot,
                         .live = true,
                         .generation = stripe.generation};
    const uint64_t base =
        static_cast<uint64_t>(target_slot) * config_.cell_opages;
    SimDuration rebuild_write_ns = 0;
    for (uint64_t offset = 0; offset < config_.cell_opages; ++offset) {
      auto write =
          target_state.device->Write(target_mdisk, base + offset);
      if (!write.ok()) {
        ApplyDeviceEvents(target_device);
        release_target();
        return false;
      }
      rebuild_write_ns += write.value();
      ++stats_.rebuild_opage_writes;
    }
    CompleteRecoveryIo(target_device, rebuild_write_ns);
    stripe.cells[missing_cell] = rebuilt;
    ++stats_.cells_rebuilt;
    ApplyDeviceEvents(target_device);
    return true;
  }
}

// ---------------------------------------------------------------------------
// Proactive health-driven drain
// ---------------------------------------------------------------------------

void EcCluster::MigrateOffFlaggedDevices() {
  // Walk stripes in id order and move live cells off flagged devices.
  // MigrateCellOff repoints the record in place; a parked move retries next
  // tick. Indices are re-checked every iteration because a migration's own
  // wear events can reshape cell state under us.
  for (Stripe& stripe : stripes_) {
    if (stripe.lost) {
      continue;
    }
    for (size_t c = 0; c < stripe.cells.size(); ++c) {
      const CellLocation& cell = stripe.cells[c];
      if (!cell.live || !Evacuating(cell.device)) {
        continue;
      }
      if (!MigrateCellOff(stripe, stripe.cells[c])) {
        ++stats_.drain_migrations_parked;
      }
    }
  }
}

bool EcCluster::MigrateCellOff(Stripe& stripe, CellLocation& cell) {
  // Every node holding a live cell — including the source's — is excluded,
  // so the move keeps the stripe node-disjoint and the placement policy sees
  // the same used-node set a rebuild would.
  std::vector<uint32_t> exclude_nodes;
  for (const CellLocation& c : stripe.cells) {
    if (c.live) {
      exclude_nodes.push_back(node_of_device(c.device));
    }
  }
  uint32_t target_device = 0;
  MinidiskId target_mdisk = 0;
  uint32_t target_slot = 0;
  if (!PickTarget(exclude_nodes, &target_device, &target_mdisk,
                  &target_slot)) {
    return false;
  }
  if (!AdmitRecoveryIo(cell.device) || !AdmitRecoveryIo(target_device)) {
    // Drain I/O rides the recovery class (priority order and the shed ledger
    // stay intact); the drain sub-counter reports it separately.
    ++stats_.sched_rebuild_sheds;
    ++stats_.drain_sched_sheds;
    return false;
  }
  DeviceState& target_state = devices_[target_device];
  const int64_t ref = PackRef(stripe.id, cell.cell);
  ClaimSlot(target_device, target_mdisk, target_slot, ref);
  const auto release_target = [&] {
    FreeSlot(target_device, target_mdisk, target_slot, ref);
  };

  DeviceState& source_state = devices_[cell.device];
  auto read = source_state.device->ReadRange(
      cell.mdisk, static_cast<uint64_t>(cell.slot) * config_.cell_opages,
      config_.cell_opages);
  if (!read.ok()) {
    release_target();
    return false;
  }
  stats_.drain_opage_reads += config_.cell_opages;
  CompleteRecoveryIo(cell.device, read.value().latency);
  if (ObserveCorruption(cell.device) > 0) {
    const uint64_t observed = codec_.CorruptObservation(stripe.checksum);
    if (!ChecksumCodec::Verify(stripe.checksum, observed)) {
      // Copying would propagate corruption: retire the cell to the reactive
      // rebuild path instead of migrating it.
      release_target();
      MarkCellBad(stripe, cell, /*enqueue=*/true);
      return false;
    }
  }

  const uint64_t base =
      static_cast<uint64_t>(target_slot) * config_.cell_opages;
  SimDuration copy_write_ns = 0;
  for (uint64_t offset = 0; offset < config_.cell_opages; ++offset) {
    auto write = target_state.device->Write(target_mdisk, base + offset);
    if (!write.ok()) {
      // Target died mid-copy: surface its events, release the claim if the
      // mDisk survived, and park the migration for the next tick.
      ApplyDeviceEvents(target_device);
      release_target();
      return false;
    }
    copy_write_ns += write.value();
    ++stats_.drain_opage_writes;
  }
  CompleteRecoveryIo(target_device, copy_write_ns);

  // Release the source slot and repoint the record in place. The migrated
  // copy keeps its generation and staleness — resync still owns freshness.
  FreeSlot(cell.device, cell.mdisk, cell.slot, ref);
  cell.device = target_device;
  cell.mdisk = target_mdisk;
  cell.slot = target_slot;
  ++stats_.drain_cells_migrated;
  // The copy wears the target; surface any resulting events (`cell` must not
  // be touched past this point — event handling can reshape cell state).
  ApplyDeviceEvents(target_device);
  return true;
}

// ---------------------------------------------------------------------------
// Bootstrap and foreground I/O
// ---------------------------------------------------------------------------

Status EcCluster::Bootstrap() {
  if (bootstrapped_) {
    return FailedPreconditionError("Bootstrap: already bootstrapped");
  }
  bootstrapped_ = true;
  uint64_t total_slots = 0;
  for (const DeviceState& state : devices_) {
    total_slots += state.free_slot_count;
  }
  const uint32_t width = config_.data_cells + config_.parity_cells;
  const uint64_t target_stripes = static_cast<uint64_t>(
      static_cast<double>(total_slots) * config_.fill_fraction / width);
  stripes_.reserve(target_stripes);
  for (uint64_t s = 0; s < target_stripes; ++s) {
    Stripe stripe;
    stripe.id = s;
    stripe.checksum = codec_.Stamp(s, stripe.generation);
    std::vector<uint32_t> used_nodes;
    bool placed_all = true;
    for (uint32_t c = 0; c < width; ++c) {
      uint32_t device_index = 0;
      MinidiskId mdisk = 0;
      uint32_t slot = 0;
      if (!PickTarget(used_nodes, &device_index, &mdisk, &slot)) {
        placed_all = false;
        break;
      }
      ClaimSlot(device_index, mdisk, slot, PackRef(s, c));
      used_nodes.push_back(node_of_device(device_index));
      stripe.cells.push_back(CellLocation{.cell = c,
                                          .device = device_index,
                                          .mdisk = mdisk,
                                          .slot = slot,
                                          .live = true});
    }
    if (!placed_all) {
      // Roll back partial placement and stop.
      for (const CellLocation& cell : stripe.cells) {
        FreeSlot(cell.device, cell.mdisk, cell.slot, PackRef(s, cell.cell));
      }
      return OkStatus();
    }
    stripes_.push_back(std::move(stripe));
    Stripe& placed = stripes_.back();
    for (CellLocation& cell : placed.cells) {
      for (uint64_t offset = 0; offset < config_.cell_opages; ++offset) {
        (void)WriteCell(cell, offset);
      }
    }
    ProcessEvents();
  }
  return OkStatus();
}

StatusOr<SimDuration> EcCluster::WriteCell(CellLocation& cell,
                                           uint64_t offset) {
  if (!cell.live) {
    return FailedPreconditionError("cell not live");
  }
  if (NodeOut(cell.device)) {
    // Unreachable node: the write is skipped, not queued; the cell goes
    // stale and maintenance-driven rebuild handles it if the mDisk dies out.
    ++stats_.outage_write_skips;
    return UnavailableError("WriteCell: node under outage");
  }
  DeviceState& state = devices_[cell.device];
  auto write = state.device->Write(
      cell.mdisk,
      static_cast<uint64_t>(cell.slot) * config_.cell_opages + offset);
  if (!write.ok()) {
    return write.status();
  }
  ++stats_.foreground_device_writes;
  return write;
}

bool EcCluster::AdmitForegroundWrite(const Stripe& stripe, uint32_t data_cell,
                                     uint64_t* extra_ns) {
  // The data-cell and parity updates fan out in parallel, so the op's queue
  // delay is the max across its target devices. Admission is all-or-nothing:
  // the first refusal sheds the whole op before any cell is touched — a
  // partial fan-out would desynchronize parity from data.
  uint64_t extra = 0;
  auto admit_cell = [&](const CellLocation& cell) {
    if (!cell.live || NodeOut(cell.device)) {
      return true;  // WriteCell skips these targets anyway
    }
    const QueueAdmission admission =
        Queue(cell.device)->Admit(OpClass::kForegroundWrite, sched_clock_ns_);
    extra = std::max(extra, admission.wait_ns + admission.backoff_ns);
    return admission.admitted;
  };
  bool admitted = admit_cell(stripe.cells[data_cell]);
  for (uint32_t p = config_.data_cells;
       admitted && p < config_.data_cells + config_.parity_cells; ++p) {
    admitted = admit_cell(stripe.cells[p]);
  }
  *extra_ns = extra;
  return admitted;
}

Status EcCluster::WriteLogicalBody(Stripe& stripe, uint32_t data_cell,
                                   uint64_t offset, SimDuration* cost_ns) {
  if (stripe.lost) {
    return DataLossError("WriteLogicalBody: stripe lost");
  }
  uint64_t sched_extra_ns = 0;  // parallel admission wait + shed backoff
  if (QueueingEnabled()) {
    sched_clock_ns_ += config_.sched.arrival_interval_ns;  // one arrival
    if (!AdmitForegroundWrite(stripe, data_cell, &sched_extra_ns)) {
      // Shed whole: no cell took the write, so data and parity stay in sync
      // at the old generation.
      return ShedForegroundOp(/*write=*/true, sched_extra_ns, sched_extra_ns,
                              cost_ns, "WriteLogicalBody: shed at admission");
    }
  }
  SimDuration slowest = 0;
  // Re-stamp the stripe's end-to-end checksum over the new contents. Each
  // targeted cell that takes the write records the new generation; one
  // that misses it (node outage, dark device) is marked stale so a later
  // suspect-window reconciliation knows its bytes lag the stripe.
  ++stripe.generation;
  stripe.checksum = codec_.Stamp(stripe.id, stripe.generation);
  if (stripe.cells[data_cell].live) {
    CellLocation& cell = stripe.cells[data_cell];
    auto write = WriteCell(cell, offset);
    if (write.ok()) {
      cell.generation = stripe.generation;
      cell.stale = false;
      if (QueueingEnabled()) {
        Queue(cell.device)->Complete(OpClass::kForegroundWrite, write.value());
      }
      slowest = std::max(slowest, write.value());
    } else {
      cell.stale = true;
    }
  }
  for (uint32_t p = config_.data_cells;
       p < config_.data_cells + config_.parity_cells; ++p) {
    if (stripe.cells[p].live) {
      CellLocation& cell = stripe.cells[p];
      auto write = WriteCell(cell, offset);
      if (write.ok()) {
        cell.generation = stripe.generation;
        cell.stale = false;
        if (QueueingEnabled()) {
          Queue(cell.device)->Complete(OpClass::kForegroundWrite,
                                       write.value());
        }
        // Data and parity updates fan out in parallel; the logical write
        // completes when the slowest device does.
        slowest = std::max(slowest, write.value());
      } else {
        cell.stale = true;
      }
    }
  }
  const SimDuration total = slowest + sched_extra_ns;
  if (cost_ns != nullptr) {
    *cost_ns = total;
  }
  stats_.sched_wait_ns += sched_extra_ns;
  RecordForegroundLatency(total);
  ++stats_.foreground_logical_writes;
  ProcessEvents();
  MaybeRunMaintenance();
  return OkStatus();
}

Status EcCluster::StepWrites(uint64_t logical_writes) {
  if (stripes_.empty()) {
    return FailedPreconditionError("StepWrites: bootstrap first");
  }
  for (uint64_t i = 0; i < logical_writes; ++i) {
    Stripe& stripe = stripes_[rng_.UniformU64(stripes_.size())];
    if (stripe.lost) {
      continue;
    }
    // A logical update touches one data cell's LBA and all parity cells:
    // EC's (1 + m)-fold write amplification.
    const uint32_t data_cell =
        static_cast<uint32_t>(rng_.UniformU64(config_.data_cells));
    const uint64_t offset = rng_.UniformU64(config_.cell_opages);
    (void)WriteLogicalBody(stripe, data_cell, offset, nullptr);
  }
  return OkStatus();
}

Status EcCluster::WriteLogicalAt(StripeId stripe_id, uint32_t data_cell,
                                 uint64_t offset, SimDuration* cost_ns) {
  if (stripes_.empty()) {
    return FailedPreconditionError("WriteLogicalAt: bootstrap first");
  }
  if (stripe_id >= stripes_.size() || data_cell >= config_.data_cells ||
      offset >= config_.cell_opages) {
    return InvalidArgumentError("WriteLogicalAt: location out of range");
  }
  Status status = WriteLogicalBody(stripes_[stripe_id], data_cell, offset,
                                   cost_ns);
  if (status.code() == StatusCode::kDataLoss) {
    return DataLossError("WriteLogicalAt: stripe lost");
  }
  return status;
}

Status EcCluster::ReadLogicalBody(Stripe& stripe, uint32_t data_cell,
                                  uint64_t offset, SimDuration* cost_ns) {
  SimDuration latency = 0;
  if (QueueingEnabled()) {
    sched_clock_ns_ += config_.sched.arrival_interval_ns;  // one arrival
  }
  CellLocation& cell = stripe.cells[data_cell];
  // A transiently dark device (suspect grace window) still holds its cells
  // live, but cannot serve I/O: such reads fall through to the degraded
  // path below and reconstruct from the k healthy cells instead of failing.
  if (cell.live && !NodeOut(cell.device) &&
      !devices_[cell.device].device->failed()) {
    uint64_t sched_extra_ns = 0;  // primary-path queue wait + shed backoff
    std::vector<DeviceQueue*> hedge_queues;
    uint64_t hedge_extra_ns = 0;
    if (QueueingEnabled()) {
      const QueueAdmission admission =
          Queue(cell.device)->Admit(OpClass::kForegroundRead, sched_clock_ns_);
      if (!admission.admitted) {
        return ShedForegroundOp(/*write=*/false, admission.backoff_ns,
                                admission.backoff_ns, cost_ns,
                                "ReadLogicalBody: shed at admission");
      }
      sched_extra_ns = admission.wait_ns + admission.backoff_ns;
      // Hedge: a *modeled* reconstruction fan-out over k alternate cells.
      // No second device read is issued (that would perturb fault-injection
      // draws and add real wear); the fan-out completes at its slowest
      // source, so it only fires when every source queue has room and the
      // slowest source wait still beats the primary's. Each source queue is
      // then charged the primary's service time as a proxy.
      if (config_.sched.hedge_threshold_ns > 0 &&
          admission.wait_ns > config_.sched.hedge_threshold_ns) {
        uint64_t slowest_wait = 0;
        bool room = true;
        for (CellLocation& source : stripe.cells) {
          if (hedge_queues.size() == config_.data_cells) {
            break;
          }
          if (!source.live || NodeOut(source.device) ||
              devices_[source.device].device->failed() ||
              source.cell == data_cell) {
            continue;
          }
          DeviceQueue* alt = Queue(source.device);
          alt->AdvanceTo(sched_clock_ns_);
          if (alt->depth() >= config_.sched.queue_depth) {
            room = false;  // a full source would shed: no hedge
            break;
          }
          slowest_wait = std::max(
              slowest_wait, alt->EstimateWaitNs(OpClass::kForegroundRead));
          hedge_queues.push_back(alt);
        }
        if (room && hedge_queues.size() == config_.data_cells &&
            slowest_wait < admission.wait_ns) {
          for (DeviceQueue* alt : hedge_queues) {
            (void)alt->Admit(OpClass::kForegroundRead, sched_clock_ns_);
          }
          hedge_extra_ns = slowest_wait;
          ++stats_.sched_hedged_reads;
        } else {
          hedge_queues.clear();
        }
      }
    }
    auto read = devices_[cell.device].device->Read(
        cell.mdisk,
        static_cast<uint64_t>(cell.slot) * config_.cell_opages + offset);
    if (read.ok()) {
      latency = read.value().latency;
    }
    const uint64_t corrupt = ObserveCorruption(cell.device);
    if (read.ok() && corrupt > 0) {
      // End-to-end verify against the stripe's checksum stamp. EC
      // read-repair: retire the corrupt data cell, re-serve the read
      // degraded from k clean cells, and let the rebuild queue restore
      // full redundancy.
      const uint64_t observed = codec_.CorruptObservation(stripe.checksum);
      if (!ChecksumCodec::Verify(stripe.checksum, observed) &&
          MarkCellBad(stripe, cell)) {
        ++stats_.degraded_reads;
        SimDuration slowest_source = 0;
        uint32_t refetched = 0;
        for (CellLocation& source : stripe.cells) {
          if (!source.live || NodeOut(source.device) ||
              refetched == config_.data_cells) {
            continue;
          }
          auto refetch = devices_[source.device].device->Read(
              source.mdisk,
              static_cast<uint64_t>(source.slot) * config_.cell_opages +
                  offset);
          if (refetch.ok()) {
            slowest_source = std::max(slowest_source, refetch.value().latency);
          }
          (void)ObserveCorruption(source.device);
          ++refetched;
        }
        // The degraded re-serve fans its k source reads out in parallel,
        // after the corrupt read already returned: sequential with it.
        latency += slowest_source;
        ProcessEvents();
      }
    }
    if (QueueingEnabled()) {
      if (read.ok()) {
        Queue(cell.device)->Complete(OpClass::kForegroundRead, latency);
        for (DeviceQueue* alt : hedge_queues) {
          alt->Complete(OpClass::kForegroundRead, latency);
        }
      }
      if (!hedge_queues.empty() && hedge_extra_ns < sched_extra_ns) {
        ++stats_.sched_hedge_wins;
        sched_extra_ns = hedge_extra_ns;  // op completes on the faster path
      }
      stats_.sched_wait_ns += sched_extra_ns;
    }
    FinishForegroundOp(latency + sched_extra_ns, cost_ns);
    return read.ok() ? OkStatus() : read.status();
  }
  // Degraded read: reconstruct from k live cells (same offset in each).
  ++stats_.degraded_reads;
  uint64_t degraded_extra_ns = 0;  // slowest source's queue wait
  bool marked_bad = false;
  uint32_t fetched = 0;
  for (CellLocation& source : stripe.cells) {
    if (!source.live || NodeOut(source.device) ||
        devices_[source.device].device->failed() ||
        fetched == config_.data_cells) {
      continue;
    }
    if (QueueingEnabled()) {
      const QueueAdmission admission = Queue(source.device)
          ->Admit(OpClass::kForegroundRead, sched_clock_ns_);
      degraded_extra_ns = std::max(
          degraded_extra_ns, admission.wait_ns + admission.backoff_ns);
      if (!admission.admitted) {
        // Reconstruction needs every source: one refusal sheds the op.
        return ShedForegroundOp(/*write=*/false, degraded_extra_ns,
                                latency + degraded_extra_ns, cost_ns,
                                "ReadLogicalBody: degraded shed");
      }
    }
    auto read = devices_[source.device].device->Read(
        source.mdisk,
        static_cast<uint64_t>(source.slot) * config_.cell_opages + offset);
    ++fetched;
    if (read.ok()) {
      // Reconstruction reads fan out in parallel: slowest source wins.
      latency = std::max(latency, read.value().latency);
      if (QueueingEnabled()) {
        Queue(source.device)
            ->Complete(OpClass::kForegroundRead, read.value().latency);
      }
    }
    if (ObserveCorruption(source.device) > 0 && read.ok()) {
      const uint64_t observed = codec_.CorruptObservation(stripe.checksum);
      if (!ChecksumCodec::Verify(stripe.checksum, observed)) {
        // A corrupt reconstruction input: retire it (rebuild will replace
        // it from parity) — a real system retries with another of the m
        // spare combinations.
        marked_bad = MarkCellBad(stripe, source) || marked_bad;
      }
    }
  }
  if (marked_bad) {
    ProcessEvents();
  }
  stats_.sched_wait_ns += degraded_extra_ns;
  FinishForegroundOp(latency + degraded_extra_ns, cost_ns);
  return fetched >= config_.data_cells
             ? OkStatus()
             : DataLossError("degraded read below k sources");
}

Status EcCluster::StepReads(uint64_t reads) {
  if (stripes_.empty()) {
    return FailedPreconditionError("StepReads: bootstrap first");
  }
  for (uint64_t i = 0; i < reads; ++i) {
    Stripe& stripe = stripes_[rng_.UniformU64(stripes_.size())];
    if (stripe.lost) {
      continue;
    }
    const uint32_t data_cell =
        static_cast<uint32_t>(rng_.UniformU64(config_.data_cells));
    const uint64_t offset = rng_.UniformU64(config_.cell_opages);
    (void)ReadLogicalBody(stripe, data_cell, offset, nullptr);
  }
  return OkStatus();
}

Status EcCluster::ReadLogicalAt(StripeId stripe_id, uint32_t data_cell,
                                uint64_t offset, SimDuration* cost_ns) {
  if (stripes_.empty()) {
    return FailedPreconditionError("ReadLogicalAt: bootstrap first");
  }
  if (stripe_id >= stripes_.size() || data_cell >= config_.data_cells ||
      offset >= config_.cell_opages) {
    return InvalidArgumentError("ReadLogicalAt: location out of range");
  }
  Stripe& stripe = stripes_[stripe_id];
  if (stripe.lost) {
    return DataLossError("ReadLogicalAt: stripe lost");
  }
  return ReadLogicalBody(stripe, data_cell, offset, cost_ns);
}

// ---------------------------------------------------------------------------
// Suspect windows, integrity, telemetry
// ---------------------------------------------------------------------------

void EcCluster::ReconcileReturnedUnit(uint32_t device_index, MinidiskId mdisk,
                                      uint32_t slot, int64_t ref) {
  Stripe& stripe = stripes_[RefStripe(ref)];
  CellLocation& cell = stripe.cells[RefCell(ref)];
  if (!cell.live || cell.device != device_index || cell.mdisk != mdisk ||
      cell.slot != slot) {
    return;
  }
  const bool fresh =
      !cell.stale &&
      !devices_[device_index].device->AnyRolledBackInRange(
          mdisk, static_cast<uint64_t>(slot) * config_.cell_opages,
          config_.cell_opages);
  if (fresh) {
    ++stats_.suspect_cells_revived;
    return;
  }
  ++stats_.suspect_cells_stale;
  if (!stripe.lost && stripe.live_cells() <= config_.data_cells) {
    // Reconstruction floor: dropping this cell would lose the stripe.
    // Keep the stale bytes live; a later foreground write (or the
    // stripe's rebuild once capacity appears) freshens it in place.
    return;
  }
  RetireCell(stripe, cell, /*enqueue=*/true);
}

bool EcCluster::MarkCellBad(Stripe& stripe, CellLocation& cell,
                            bool enqueue) {
  if (!cell.live) {
    return false;
  }
  if (!stripe.lost && stripe.live_cells() <= config_.data_cells) {
    // Reconstruction floor: dropping this cell leaves fewer than k live
    // cells and loses the whole stripe. Keep the corrupt bytes — partial
    // data beats total loss (the same retention rule DifsCluster applies to
    // a chunk's last readable copy).
    ++stats_.integrity_retained_cells;
    return false;
  }
  ++stats_.integrity_marked_bad;
  RetireCell(stripe, cell, enqueue);
  return true;
}

void EcCluster::RetireCell(Stripe& stripe, CellLocation& cell, bool enqueue) {
  FreeSlot(cell.device, cell.mdisk, cell.slot, PackRef(stripe.id, cell.cell));
  cell.live = false;
  ++stats_.cells_lost;
  if (enqueue && !stripe.lost &&
      stripe.live_cells() < config_.data_cells + config_.parity_cells) {
    pending_repairs_.push_back(stripe.id);
  }
}

void EcCluster::AppendLiveUnits(uint64_t group,
                                std::vector<LiveUnit>* out) const {
  const Stripe& stripe = stripes_[group];
  for (const CellLocation& cell : stripe.cells) {
    if (cell.live) {
      out->push_back(LiveUnit{.device = cell.device,
                              .mdisk = cell.mdisk,
                              .slot = cell.slot,
                              .ref = PackRef(stripe.id, cell.cell)});
    }
  }
}

void EcCluster::CollectMetrics(MetricRegistry& registry,
                               const std::string& prefix) const {
  CollectCoreMetrics(registry, prefix);
  const std::string root = prefix + "ec.";
  const auto counter = [&](const char* name, uint64_t value) {
    registry.GetCounter(root + name).Add(value);
  };
  const auto gauge = [&](const char* name, uint64_t value) {
    registry.GetGauge(root + name).Add(static_cast<double>(value));
  };
  counter("foreground_logical_writes", stats_.foreground_logical_writes);
  counter("foreground_device_writes", stats_.foreground_device_writes);
  counter("rebuild_opage_reads", stats_.rebuild_opage_reads);
  counter("rebuild_opage_writes", stats_.rebuild_opage_writes);
  counter("rebuild_read_bytes", stats_.rebuild_read_bytes());
  counter("cells_lost", stats_.cells_lost);
  counter("cells_rebuilt", stats_.cells_rebuilt);
  counter("degraded_reads", stats_.degraded_reads);
  counter("stripes_lost", stats_.stripes_lost);
  counter("rebuild_deferred", stats_.rebuild_deferred);
  counter("integrity.retained_cells", stats_.integrity_retained_cells);
  // Feature instruments only exist when their feature is on, keeping legacy
  // metric exports byte-identical.
  if (config_.sched.enabled()) {
    counter("sched.rebuild_sheds", stats_.sched_rebuild_sheds);
    counter("sched.brownout_rebuild_deferrals",
            stats_.brownout_rebuild_deferrals);
  }
  if (config_.suspect_grace_ticks > 0) {
    counter("suspect.cells_revived", stats_.suspect_cells_revived);
    counter("suspect.cells_stale", stats_.suspect_cells_stale);
  }
  if (config_.drain_health_threshold > 0.0) {
    counter("drain.cells_migrated", stats_.drain_cells_migrated);
  }
  gauge("total_stripes", total_stripes());
  gauge("stripes_fully_redundant", stripes_fully_redundant());
  gauge("stripes_degraded", stripes_degraded());
  gauge("pending_rebuild_backlog",
        pending_repairs_.size() + waiting_capacity_.size());
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t EcCluster::stripes_fully_redundant() const {
  const uint32_t width = config_.data_cells + config_.parity_cells;
  uint64_t n = 0;
  for (const Stripe& stripe : stripes_) {
    n += (!stripe.lost && stripe.live_cells() == width) ? 1 : 0;
  }
  return n;
}

uint64_t EcCluster::stripes_degraded() const {
  const uint32_t width = config_.data_cells + config_.parity_cells;
  uint64_t n = 0;
  for (const Stripe& stripe : stripes_) {
    n += (!stripe.lost && stripe.live_cells() < width) ? 1 : 0;
  }
  return n;
}

}  // namespace salamander
