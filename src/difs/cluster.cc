#include "difs/cluster.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace salamander {

DifsCluster::DifsCluster(const DifsConfig& config,
                         const DeviceFactory& device_factory)
    : ClusterCore(
          {.name = "difs",
           .rng_salt = 0xd1f5d1f5d1f5d1f5ULL,
           .grace_window_drains = true,
           .resync_repairs_are_events = true,
           .retry = {.max_retries = config.max_transient_retries,
                     .backoff_base_ns = config.transient_backoff_base_ns,
                     .backoff_max_shift = config.transient_backoff_max_shift},
           .group = "chunk",
           .lost_log = "lost all replicas",
           .group_lost_event = "chunk_lost",
           .unit_bad_event = "replica_marked_bad",
           .write_shed_message = "WriteChunkBody: shed at admission"},
          /*k=*/1, /*width=*/config.replication, config.seed),
      config_(config) {
  assert(config_.replication >= 1);
  assert(config_.nodes >= config_.replication &&
         "need at least R nodes for node-distinct placement");
  trace_ = config_.trace;
  trace_tid_ = config_.trace_tid;
  SetUpDevices(config_.nodes, config_.chunk_opages, device_factory);
}

ClusterCore::SchemeCounters DifsCluster::scheme_counters() {
  return {.units_lost = stats_.replicas_lost,
          .groups_lost = stats_.chunks_lost,
          .units_repaired = stats_.replicas_recovered,
          .repair_writes = stats_.recovery_opage_writes,
          .repair_deferred = stats_.recovery_deferred,
          .repair_sheds = stats_.sched_recovery_sheds,
          .brownout_deferrals = stats_.brownout_recovery_deferrals,
          .units_migrated = stats_.drain_replicas_migrated,
          .retained = stats_.integrity_retained_last_copies,
          .suspect_revived = stats_.suspect_replicas_revived,
          .suspect_stale = stats_.suspect_replicas_stale};
}

// ---------------------------------------------------------------------------
// Drains and recovery
// ---------------------------------------------------------------------------

void DifsCluster::HandleMdiskDraining(uint32_t device_index,
                                      MinidiskId mdisk) {
  DeviceState& state = devices_[device_index];
  auto it = state.slots.find(mdisk);
  if (it == state.slots.end()) {
    return;
  }
  if (state.draining_pending.count(mdisk) != 0) {
    return;  // duplicate delivery: the drain is already being worked
  }
  ++stats_.drains_started;
  uint32_t pending = 0;
  for (uint32_t slot = 0; slot < it->second.size(); ++slot) {
    int64_t& entry = it->second[slot];
    if (entry == kFreeSlot) {
      // Draining mDisks accept no new data; retire the free slot.
      --state.free_slot_count;
      entry = kUnavailableSlot;
      continue;
    }
    if (entry == kUnavailableSlot) {
      continue;
    }
    Chunk& chunk = groups_[static_cast<uint64_t>(entry)];
    if (ReplicaLocation* replica =
            FindLiveUnit(chunk, device_index, mdisk, slot)) {
      replica->draining = true;
    }
    ++pending;
    if (!chunk.lost && chunk.live_units() < width_) {
      pending_repairs_.push_back(chunk.id);
    }
  }
  if (pending == 0) {
    // Nothing to migrate: ack immediately. A lost ack is re-sent by resync.
    SendAckDrain(device_index, mdisk);
    state.slots.erase(it);
  } else {
    state.draining_pending[mdisk] = pending;
  }
}

bool DifsCluster::RepairOneUnit(uint64_t chunk_id) {
  Chunk& chunk = groups_[chunk_id];
  SlotRef target;
  // Source-selection loop: a survivor whose copy fails its end-to-end
  // checksum is retired on the spot (read-repair) and another survivor is
  // tried. Bounded — every retry removes one replica.
  for (;;) {
    // A replica on an out node cannot serve as the copy source.
    ReplicaLocation* source = nullptr;
    ReplicaLocation* draining_source = nullptr;
    for (ReplicaLocation& replica : chunk.units) {
      if (!replica.live || NodeOut(replica.device)) {
        continue;
      }
      if (replica.draining) {
        draining_source = &replica;
      } else if (source == nullptr) {
        source = &replica;
      }
    }
    if (source == nullptr) {
      source = draining_source;
    }
    if (source == nullptr || !PickTarget(SpreadNodes(chunk), &target)) {
      return false;
    }
    if (!AdmitRecoveryIo(source->device) || !AdmitRecoveryIo(target.device)) {
      // The copy aborts and the chunk parks for a later pass.
      ++stats_.sched_recovery_sheds;
      return false;
    }
    (void)ReadCopySource(*source, &stats_.recovery_opage_reads);
    // A clean source ends the search. So does the last readable copy, which
    // MarkUnitBad refuses to retire: corrupt data beats no data — copy it
    // anyway. Retiring a corrupt source needs no re-enqueue: the recovery
    // loop already owns this chunk.
    if (ObserveCorruption(source->device) == 0 ||
        !MarkUnitBad(chunk, *source, /*enqueue=*/false)) {
      break;
    }
  }
  return RepairUnit(chunk_id, target, kAppendUnit);
}

// ---------------------------------------------------------------------------
// Foreground I/O
// ---------------------------------------------------------------------------

Status DifsCluster::StepWrites(uint64_t opage_writes) {
  if (groups_.empty()) {
    return FailedPreconditionError("StepWrites: bootstrap first");
  }
  for (uint64_t i = 0; i < opage_writes; ++i) {
    Chunk& chunk = groups_[rng_.UniformU64(groups_.size())];
    if (chunk.lost) {
      continue;
    }
    const uint64_t offset = rng_.UniformU64(config_.chunk_opages);
    (void)WriteGroup(chunk, /*data_unit=*/0, offset, nullptr,
                     &stats_.foreground_opage_writes);
  }
  return OkStatus();
}

Status DifsCluster::WriteChunkAt(ChunkId chunk_id, uint64_t offset,
                                 SimDuration* cost_ns) {
  if (groups_.empty()) {
    return FailedPreconditionError("WriteChunkAt: bootstrap first");
  }
  if (chunk_id >= groups_.size()) {
    return InvalidArgumentError("WriteChunkAt: chunk id out of range");
  }
  if (offset >= config_.chunk_opages) {
    return InvalidArgumentError("WriteChunkAt: offset out of range");
  }
  if (groups_[chunk_id].lost) {
    return DataLossError("WriteChunkAt: chunk lost");
  }
  return WriteGroup(groups_[chunk_id], /*data_unit=*/0, offset, cost_ns,
                    &stats_.foreground_opage_writes);
}

Status DifsCluster::ReadChunkImpl(ChunkId chunk_id, const uint64_t* offset_ptr,
                                  SimDuration* cost_ns) {
  Chunk& chunk = groups_[chunk_id];
  if (chunk.lost || chunk.readable_units() == 0) {
    return DataLossError("chunk unreadable");
  }
  // Pick a random readable replica (draining ones still serve reads),
  // excluding replicas on an out node. Without an outage the candidate
  // count equals readable_units(), so the RNG schedule is unchanged.
  uint32_t candidates = 0;
  for (const ReplicaLocation& r : chunk.units) {
    candidates += (r.live && !NodeOut(r.device)) ? 1 : 0;
  }
  if (candidates == 0) {
    return UnavailableError("every readable copy behind the outage");
  }
  uint32_t live_index = static_cast<uint32_t>(rng_.UniformU64(candidates));
  ReplicaLocation* replica = nullptr;
  for (ReplicaLocation& r : chunk.units) {
    if (r.live && !NodeOut(r.device) && live_index-- == 0) {
      replica = &r;
      break;
    }
  }
  // Legacy draw order: the offset is drawn *after* the replica pick. A
  // targeted caller supplies it instead, skipping the draw.
  const uint64_t offset =
      offset_ptr != nullptr ? *offset_ptr : rng_.UniformU64(config_.chunk_opages);
  uint64_t sched_extra_ns = 0;  // primary-path queue wait + shed backoff
  DeviceQueue* hedge_queue = nullptr;
  uint64_t hedge_extra_ns = 0;
  if (QueueingEnabled()) {
    sched_clock_ns_ += config_.sched.arrival_interval_ns;  // one arrival
    const QueueAdmission admission =
        Queue(replica->device)->Admit(OpClass::kForegroundRead, sched_clock_ns_);
    if (!admission.admitted) {
      return ShedForegroundOp(/*write=*/false, admission.backoff_ns,
                              admission.backoff_ns, cost_ns,
                              "ReadChunkImpl: shed at admission");
    }
    sched_extra_ns = admission.wait_ns + admission.backoff_ns;
    // Hedge: when the primary's queue delay breaches the threshold, admit a
    // *modeled* duplicate on the least-loaded alternate replica (lowest
    // device index breaks ties). No second device read is issued — that
    // would perturb fault-injection draws and add real wear — the alternate
    // queue is charged the primary's service time as a proxy and the op
    // finishes on whichever path frees it first. Only alternates with queue
    // room are considered, so the hedge admission never sheds or retries.
    if (config_.sched.hedge_threshold_ns > 0 &&
        admission.wait_ns > config_.sched.hedge_threshold_ns) {
      uint32_t hedge_device = 0;
      uint64_t best_wait = 0;
      bool found = false;
      for (const ReplicaLocation& r : chunk.units) {
        // A replica can be live in the bookkeeping while its device is dark
        // (suspect window after a crash): hedging there would model a
        // duplicate read against a powered-off device. Fall back to the
        // primary path instead — a hedge must never make things worse.
        if (!r.live || NodeOut(r.device) || r.device == replica->device ||
            devices_[r.device].device->failed()) {
          continue;
        }
        DeviceQueue* alt = Queue(r.device);
        alt->AdvanceTo(sched_clock_ns_);
        if (alt->depth() >= config_.sched.queue_depth) {
          continue;  // full: a hedge would just shed
        }
        const uint64_t wait = alt->EstimateWaitNs(OpClass::kForegroundRead);
        if (!found || wait < best_wait) {
          found = true;
          best_wait = wait;
          hedge_device = r.device;
        }
      }
      if (found && best_wait < admission.wait_ns) {
        const QueueAdmission hedge_admission =
            Queue(hedge_device)->Admit(OpClass::kForegroundRead, sched_clock_ns_);
        hedge_queue = Queue(hedge_device);
        hedge_extra_ns = hedge_admission.wait_ns + hedge_admission.backoff_ns;
        ++stats_.sched_hedged_reads;
      }
    }
  }
  const uint64_t backoff_before = stats_.backoff_ns;
  SimDuration latency = 0;
  DeviceState& state = devices_[replica->device];
  auto read = WithTransientRetry([&] {
    return state.device->Read(
        replica->mdisk,
        static_cast<uint64_t>(replica->slot) * config_.chunk_opages + offset);
  });
  if (read.ok()) {
    latency = read.value().latency;
  }
  const uint64_t corrupt = ObserveCorruption(replica->device);
  if (read.ok() && corrupt > 0) {
    // End-to-end verify: the device said the read succeeded, but the
    // checksum computed over the delivered payload does not match the
    // stamp in chunk metadata. Read-repair: retire the corrupt replica,
    // re-serve the read from a survivor (retiring any survivor that also
    // fails its checksum), and let the recovery scheduler re-replicate.
    if (MarkUnitBad(chunk, *replica, /*enqueue=*/true)) {
      for (ReplicaLocation& survivor : chunk.units) {
        if (!survivor.live || NodeOut(survivor.device)) {
          continue;
        }
        DeviceState& sstate = devices_[survivor.device];
        auto reread = WithTransientRetry([&] {
          return sstate.device->Read(
              survivor.mdisk,
              static_cast<uint64_t>(survivor.slot) * config_.chunk_opages +
                  offset);
        });
        if (reread.ok()) {
          // The re-serve happens after the corrupt read returned:
          // sequential, so its latency adds to the op's service time.
          latency += reread.value().latency;
        }
        const uint64_t again = ObserveCorruption(survivor.device);
        if (reread.ok() && again == 0) {
          ++stats_.integrity_survivor_reads;
          break;
        }
        if (again > 0 && !MarkUnitBad(chunk, survivor, /*enqueue=*/true)) {
          break;  // last readable copy retained; nothing cleaner exists
        }
      }
    }
    ProcessEvents();
  } else if (!read.ok() && read.status().code() == StatusCode::kDataLoss) {
    ++stats_.uncorrectable_reads;
    // Scrub: rewrite the page so future reads see freshly-programmed flash
    // (content restored from a healthy replica in a real system).
    auto repair = WriteUnit(*replica, offset);
    if (repair.ok()) {
      ++stats_.scrub_repairs;
      latency += repair.value();
    }
    ProcessEvents();
  }
  if (QueueingEnabled()) {
    if (read.ok()) {
      Queue(replica->device)->Complete(OpClass::kForegroundRead, latency);
      if (hedge_queue != nullptr) {
        hedge_queue->Complete(OpClass::kForegroundRead, latency);
      }
    }
    if (hedge_queue != nullptr && hedge_extra_ns < sched_extra_ns) {
      ++stats_.sched_hedge_wins;
      sched_extra_ns = hedge_extra_ns;  // op completes on the faster path
    }
    stats_.sched_wait_ns += sched_extra_ns;
  }
  const SimDuration total =
      latency + (stats_.backoff_ns - backoff_before) + sched_extra_ns;
  FinishForegroundOp(total, cost_ns);
  return read.ok() ? OkStatus() : read.status();
}

Status DifsCluster::StepReads(uint64_t opage_reads) {
  if (groups_.empty()) {
    return FailedPreconditionError("StepReads: bootstrap first");
  }
  for (uint64_t i = 0; i < opage_reads; ++i) {
    const ChunkId chunk_id = rng_.UniformU64(groups_.size());
    // Unreadable / fully-outaged chunks return early without drawing — the
    // same skip the legacy loop's `continue` performed.
    (void)ReadChunkImpl(chunk_id, nullptr, nullptr);
  }
  return OkStatus();
}

Status DifsCluster::ReadChunkAt(ChunkId chunk_id, uint64_t offset,
                                SimDuration* cost_ns) {
  if (groups_.empty()) {
    return FailedPreconditionError("ReadChunkAt: bootstrap first");
  }
  if (chunk_id >= groups_.size()) {
    return InvalidArgumentError("ReadChunkAt: chunk id out of range");
  }
  if (offset >= config_.chunk_opages) {
    return InvalidArgumentError("ReadChunkAt: offset out of range");
  }
  return ReadChunkImpl(chunk_id, &offset, cost_ns);
}

// ---------------------------------------------------------------------------
// Background scrub
// ---------------------------------------------------------------------------

uint64_t DifsCluster::ScrubStep(uint64_t opage_budget) {
  if (opage_budget == 0 || groups_.empty()) {
    return 0;
  }
  if (brownout_ != nullptr && brownout_->active()) {
    // Graceful degradation: while foreground p99 breaches the SLO, scrub
    // yields its whole budget (the cursor does not move, so no coverage is
    // silently lost — the pass just finishes later).
    ++stats_.brownout_scrub_deferrals;
    return 0;
  }
  uint64_t reads = 0;
  // Positions that turned out unreadable (dead replicas, out nodes, lost
  // chunks) cost no budget; bound them so a mostly-dead cluster cannot spin.
  uint64_t skipped = 0;
  const uint64_t skip_limit =
      groups_.size() * (static_cast<uint64_t>(config_.replication) + 2);
  while (reads < opage_budget && skipped <= skip_limit) {
    if (scrub_cursor_.major >= groups_.size()) {
      scrub_cursor_.major = 0;
      scrub_cursor_.minor = 0;
    }
    Chunk& chunk = groups_[scrub_cursor_.major];
    const uint64_t minor_size =
        chunk.units.size() * config_.chunk_opages;
    if (chunk.lost || minor_size == 0 ||
        scrub_cursor_.minor >= minor_size) {
      ++skipped;
      if (scrub_cursor_.SkipMajor(groups_.size())) {
        ++stats_.scrub_passes;
      }
      continue;
    }
    const uint32_t replica_index =
        static_cast<uint32_t>(scrub_cursor_.minor / config_.chunk_opages);
    const uint64_t offset = scrub_cursor_.minor % config_.chunk_opages;
    ReplicaLocation& replica = chunk.units[replica_index];
    if (!replica.live || NodeOut(replica.device)) {
      // Skip the rest of this replica's oPages.
      ++skipped;
      scrub_cursor_.minor =
          (static_cast<uint64_t>(replica_index) + 1) * config_.chunk_opages;
      if (scrub_cursor_.minor >= minor_size &&
          scrub_cursor_.SkipMajor(groups_.size())) {
        ++stats_.scrub_passes;
      } else if (scrub_cursor_.minor >= minor_size) {
        scrub_cursor_.minor = 0;
      }
      continue;
    }
    if (QueueingEnabled()) {
      // Scrub rides at the lowest priority: a full queue sheds the read and
      // the cursor moves on (the position is retried on the next pass).
      const QueueAdmission admission =
          Queue(replica.device)->Admit(OpClass::kScrub, sched_clock_ns_);
      if (!admission.admitted) {
        ++stats_.sched_scrub_sheds;
        ++skipped;
        if (scrub_cursor_.Advance(groups_.size(), minor_size)) {
          ++stats_.scrub_passes;
        }
        continue;
      }
    }
    DeviceState& state = devices_[replica.device];
    auto read = WithTransientRetry([&] {
      return state.device->Read(
          replica.mdisk,
          static_cast<uint64_t>(replica.slot) * config_.chunk_opages + offset);
    });
    if (QueueingEnabled() && read.ok()) {
      Queue(replica.device)->Complete(OpClass::kScrub, read.value().latency);
    }
    ++reads;
    ++stats_.scrub_opage_reads;
    const uint64_t corrupt = ObserveCorruption(replica.device);
    if (read.ok() && corrupt > 0) {
      stats_.scrub_detected += corrupt;
      // Latent corruption caught before a foreground read (or the loss of
      // the last good replica): repair through the same read-repair path.
      MarkUnitBad(chunk, replica, /*enqueue=*/true);
      ProcessEvents();
    } else if (!read.ok() && read.status().code() == StatusCode::kDataLoss) {
      ++stats_.uncorrectable_reads;
      if (WriteUnit(replica, offset).ok()) {
        ++stats_.scrub_repairs;
      }
      ProcessEvents();
    }
    if (scrub_cursor_.Advance(groups_.size(), minor_size)) {
      ++stats_.scrub_passes;
    }
  }
  return reads;
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void DifsCluster::CollectMetrics(MetricRegistry& registry,
                                 const std::string& prefix) const {
  CollectCoreMetrics(registry, prefix);
  const std::string root = prefix + "difs.";
  const auto counter = [&](const char* name, uint64_t value) {
    registry.GetCounter(root + name).Add(value);
  };
  const auto gauge = [&](const char* name, uint64_t value) {
    registry.GetGauge(root + name).Add(static_cast<double>(value));
  };
  counter("foreground_opage_writes", stats_.foreground_opage_writes);
  counter("recovery_opage_writes", stats_.recovery_opage_writes);
  counter("recovery_opage_reads", stats_.recovery_opage_reads);
  counter("recovery_bytes", stats_.recovery_bytes());
  counter("replicas_recovered", stats_.replicas_recovered);
  counter("replicas_lost", stats_.replicas_lost);
  counter("drain_window_losses", stats_.drain_window_losses);
  counter("chunks_lost", stats_.chunks_lost);
  counter("recovery_deferred", stats_.recovery_deferred);
  counter("uncorrectable_reads", stats_.uncorrectable_reads);
  counter("scrub_repairs", stats_.scrub_repairs);
  counter("recovery_waves", stats_.recovery_waves);
  counter("transient_retries", stats_.transient_retries);
  counter("transient_giveups", stats_.transient_giveups);
  counter("backoff_ns", stats_.backoff_ns);
  counter("resync_passes", stats_.resync_passes);
  counter("resync_repairs", stats_.resync_repairs);
  counter("integrity.retained_last_copies",
          stats_.integrity_retained_last_copies);
  counter("integrity.survivor_reads", stats_.integrity_survivor_reads);
  counter("scrub.opage_reads", stats_.scrub_opage_reads);
  counter("scrub.detected", stats_.scrub_detected);
  counter("scrub.passes", stats_.scrub_passes);
  // Feature instruments only exist when their feature is on, keeping legacy
  // metric exports byte-identical.
  if (config_.sched.enabled()) {
    counter("sched.recovery_sheds", stats_.sched_recovery_sheds);
    counter("sched.scrub_sheds", stats_.sched_scrub_sheds);
    counter("sched.brownout_scrub_deferrals",
            stats_.brownout_scrub_deferrals);
    counter("sched.brownout_recovery_deferrals",
            stats_.brownout_recovery_deferrals);
  }
  if (config_.suspect_grace_ticks > 0) {
    counter("suspect.replicas_revived", stats_.suspect_replicas_revived);
    counter("suspect.replicas_stale", stats_.suspect_replicas_stale);
  }
  if (config_.drain_health_threshold > 0.0) {
    counter("drain.replicas_migrated", stats_.drain_replicas_migrated);
  }
  gauge("max_wave_recovery_opages", stats_.max_wave_recovery_opages);
  gauge("total_chunks", total_chunks());
  gauge("chunks_fully_replicated", chunks_fully_replicated());
  gauge("chunks_under_replicated", chunks_under_replicated());
  gauge("chunks_waiting_capacity", chunks_waiting_capacity());
  gauge("pending_recovery_backlog", pending_recovery_backlog());
  gauge("live_capacity_bytes", live_capacity_bytes());
}

}  // namespace salamander
