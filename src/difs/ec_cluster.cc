#include "difs/ec_cluster.h"

#include <algorithm>
#include <cassert>

namespace salamander {

EcCluster::EcCluster(const EcConfig& config,
                     const DeviceFactory& device_factory)
    : ClusterCore({.name = "ec",
                   .rng_salt = 0xececececececececULL,
                   .grace_window_drains = false,
                   .resync_repairs_are_events = false,
                   .retry = {},
                   .group = "stripe",
                   .lost_log = "lost more than m cells",
                   .group_lost_event = "stripe_lost",
                   .unit_bad_event = "cell_marked_bad",
                   .write_shed_message = "WriteLogicalBody: shed at admission"},
                  /*k=*/config.data_cells,
                  /*width=*/config.data_cells + config.parity_cells,
                  config.seed),
      config_(config) {
  assert(config_.data_cells >= 1);
  assert(config_.parity_cells >= 1);
  assert(config_.nodes >= config_.data_cells + config_.parity_cells &&
         "need k+m nodes for node-disjoint placement");
  SetUpDevices(config_.nodes, config_.cell_opages, device_factory);
}

ClusterCore::SchemeCounters EcCluster::scheme_counters() {
  return {.units_lost = stats_.cells_lost,
          .groups_lost = stats_.stripes_lost,
          .units_repaired = stats_.cells_rebuilt,
          .repair_writes = stats_.rebuild_opage_writes,
          .repair_deferred = stats_.rebuild_deferred,
          .repair_sheds = stats_.sched_rebuild_sheds,
          .brownout_deferrals = stats_.brownout_rebuild_deferrals,
          .units_migrated = stats_.drain_cells_migrated,
          .retained = stats_.integrity_retained_cells,
          .suspect_revived = stats_.suspect_cells_revived,
          .suspect_stale = stats_.suspect_cells_stale};
}

// ---------------------------------------------------------------------------
// Drains and rebuild
// ---------------------------------------------------------------------------

void EcCluster::HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) {
  if (devices_[device_index].slots.count(mdisk) == 0) {
    return;  // duplicate delivery: the drain was already processed
  }
  ++stats_.drains_started;
  // Retire every cell on the mDisk and queue its stripe for rebuild — the
  // same bookkeeping a decommission performs, just ahead of the deadline.
  HandleMdiskLoss(device_index, mdisk);
  SendAckDrain(device_index, mdisk);
}

bool EcCluster::RepairOneUnit(uint64_t stripe_id) {
  Stripe& stripe = groups_[stripe_id];
  SlotRef target;
  uint32_t missing_cell = UINT32_MAX;
  // Outer retry: a source whose read comes back corrupt is retired (it is
  // itself reconstructable from parity) and reconstruction restarts with a
  // fresh source set. Bounded — each retry permanently removes a live cell.
  for (bool retry = true; retry;) {
    // Reconstruction needs any k live cells; the rebuilt cell must land on a
    // node hosting none of the stripe's live cells.
    std::vector<CellLocation*> sources;
    missing_cell = UINT32_MAX;
    for (uint32_t c = 0; c < stripe.units.size(); ++c) {
      CellLocation& cell = stripe.units[c];
      if (!cell.live) {
        missing_cell = std::min(missing_cell, c);
      } else if (sources.size() < config_.data_cells &&
                 !NodeOut(cell.device)) {
        sources.push_back(&cell);
      }
    }
    if (missing_cell == UINT32_MAX || sources.size() < config_.data_cells ||
        !PickTarget(SpreadNodes(stripe), &target)) {
      return false;
    }
    // Any refusal sheds the whole attempt and the stripe parks in
    // waiting_capacity_ for a later wave (deferral machinery, not loss).
    bool admitted = true;
    for (size_t i = 0; admitted && i < sources.size(); ++i) {
      admitted = AdmitRecoveryIo(sources[i]->device);
    }
    if (!admitted || !AdmitRecoveryIo(target.device)) {
      ++stats_.sched_rebuild_sheds;
      return false;
    }
    // Read k surviving cells in full: the k-fold reconstruction traffic.
    // Feeding a silently-corrupt cell into reconstruction would bake the
    // corruption into the rebuilt cell: drop the source and start over (the
    // rebuild loop already owns this stripe — no re-enqueue, or blanket
    // corruption would keep the queue alive forever). If MarkUnitBad
    // refuses (stripe at the reconstruction floor), proceed — corrupt bytes
    // beat no bytes.
    retry = false;
    for (CellLocation* source : sources) {
      (void)ReadCopySource(*source, &stats_.rebuild_opage_reads);
      if (ObserveCorruption(source->device) > 0 &&
          MarkUnitBad(stripe, *source, /*enqueue=*/false)) {
        retry = true;
        break;
      }
    }
  }
  return RepairUnit(stripe_id, target, missing_cell);
}

// ---------------------------------------------------------------------------
// Foreground I/O
// ---------------------------------------------------------------------------

Status EcCluster::StepWrites(uint64_t logical_writes) {
  if (groups_.empty()) {
    return FailedPreconditionError("StepWrites: bootstrap first");
  }
  for (uint64_t i = 0; i < logical_writes; ++i) {
    Stripe& stripe = groups_[rng_.UniformU64(groups_.size())];
    if (stripe.lost) {
      continue;
    }
    // A logical update touches one data cell's LBA and all parity cells:
    // EC's (1 + m)-fold write amplification.
    const uint32_t data_cell =
        static_cast<uint32_t>(rng_.UniformU64(config_.data_cells));
    const uint64_t offset = rng_.UniformU64(config_.cell_opages);
    (void)WriteGroup(stripe, data_cell, offset, nullptr,
                     &stats_.foreground_logical_writes);
  }
  return OkStatus();
}

Status EcCluster::WriteLogicalAt(StripeId stripe_id, uint32_t data_cell,
                                 uint64_t offset, SimDuration* cost_ns) {
  if (groups_.empty()) {
    return FailedPreconditionError("WriteLogicalAt: bootstrap first");
  }
  if (stripe_id >= groups_.size() || data_cell >= config_.data_cells ||
      offset >= config_.cell_opages) {
    return InvalidArgumentError("WriteLogicalAt: location out of range");
  }
  if (groups_[stripe_id].lost) {
    return DataLossError("WriteLogicalAt: stripe lost");
  }
  return WriteGroup(groups_[stripe_id], data_cell, offset, cost_ns,
                    &stats_.foreground_logical_writes);
}

Status EcCluster::ReadLogicalBody(Stripe& stripe, uint32_t data_cell,
                                  uint64_t offset, SimDuration* cost_ns) {
  SimDuration latency = 0;
  if (QueueingEnabled()) {
    sched_clock_ns_ += config_.sched.arrival_interval_ns;  // one arrival
  }
  CellLocation& cell = stripe.units[data_cell];
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
        for (CellLocation& source : stripe.units) {
          if (hedge_queues.size() == config_.data_cells) {
            break;
          }
          if (!source.live || NodeOut(source.device) ||
              devices_[source.device].device->failed() || &source == &cell) {
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
    // End-to-end verify against the stripe's checksum stamp. EC
    // read-repair: retire the corrupt data cell, re-serve the read degraded
    // from k clean cells, and let the rebuild queue restore full redundancy.
    if (read.ok() && corrupt > 0 &&
        MarkUnitBad(stripe, cell, /*enqueue=*/true)) {
      ++stats_.degraded_reads;
      SimDuration slowest_source = 0;
      uint32_t refetched = 0;
      for (CellLocation& source : stripe.units) {
        if (!source.live || NodeOut(source.device) ||
            refetched == config_.data_cells) {
          continue;
        }
        auto refetch = devices_[source.device].device->Read(
            source.mdisk,
            static_cast<uint64_t>(source.slot) * config_.cell_opages + offset);
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
  for (CellLocation& source : stripe.units) {
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
      // A corrupt reconstruction input: retire it (rebuild will replace it
      // from parity) — a real system retries with another of the m spare
      // combinations.
      marked_bad = MarkUnitBad(stripe, source, /*enqueue=*/true) || marked_bad;
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
  if (groups_.empty()) {
    return FailedPreconditionError("StepReads: bootstrap first");
  }
  for (uint64_t i = 0; i < reads; ++i) {
    Stripe& stripe = groups_[rng_.UniformU64(groups_.size())];
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
  if (groups_.empty()) {
    return FailedPreconditionError("ReadLogicalAt: bootstrap first");
  }
  if (stripe_id >= groups_.size() || data_cell >= config_.data_cells ||
      offset >= config_.cell_opages) {
    return InvalidArgumentError("ReadLogicalAt: location out of range");
  }
  Stripe& stripe = groups_[stripe_id];
  if (stripe.lost) {
    return DataLossError("ReadLogicalAt: stripe lost");
  }
  return ReadLogicalBody(stripe, data_cell, offset, cost_ns);
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

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

}  // namespace salamander
