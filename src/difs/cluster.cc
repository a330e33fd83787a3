#include "difs/cluster.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/logging.h"

namespace salamander {

DifsCluster::DifsCluster(const DifsConfig& config,
                         const DeviceFactory& device_factory)
    : ClusterCore({.name = "difs",
                   .rng_salt = 0xd1f5d1f5d1f5d1f5ULL,
                   .grace_window_drains = true,
                   .resync_repairs_are_events = true},
                  config.seed),
      config_(config) {
  assert(config_.replication >= 1);
  assert(config_.nodes >= config_.replication &&
         "need at least R nodes for node-distinct placement");
  trace_ = config_.trace;
  trace_tid_ = config_.trace_tid;
  SetUpDevices(config_.nodes, config_.chunk_opages, device_factory);
}

// ---------------------------------------------------------------------------
// Event handling
// ---------------------------------------------------------------------------

void DifsCluster::LoseUnit(uint32_t device_index, MinidiskId mdisk,
                           uint32_t slot, int64_t ref) {
  Chunk& chunk = chunks_[static_cast<uint64_t>(ref)];
  for (ReplicaLocation& replica : chunk.replicas) {
    if (replica.live && replica.device == device_index &&
        replica.mdisk == mdisk && replica.slot == slot) {
      replica.live = false;
      ++stats_.replicas_lost;
      if (replica.draining) {
        // The grace window closed (forced finish or brick) before this
        // chunk was re-replicated off the draining mDisk.
        ++stats_.drain_window_losses;
      }
      break;
    }
  }
  if (!chunk.lost) {
    if (chunk.readable_replicas() == 0) {
      chunk.lost = true;
      ++stats_.chunks_lost;
      SALA_LOG(kWarning) << "chunk " << chunk.id << " lost all replicas";
      TraceInstant("chunk_lost");
    } else if (chunk.live_replicas() < config_.replication) {
      pending_repairs_.push_back(chunk.id);
    }
  }
}

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
    Chunk& chunk = chunks_[static_cast<uint64_t>(entry)];
    for (ReplicaLocation& replica : chunk.replicas) {
      if (replica.live && replica.device == device_index &&
          replica.mdisk == mdisk && replica.slot == slot) {
        replica.draining = true;
        break;
      }
    }
    ++pending;
    if (!chunk.lost && chunk.live_replicas() < config_.replication) {
      pending_repairs_.push_back(chunk.id);
    }
  }
  if (pending == 0) {
    // Nothing to migrate: ack immediately. A lost ack is re-sent by resync.
    (void)SendAckDrain(device_index, mdisk);
    ++stats_.drains_acked;
    state.slots.erase(it);
  } else {
    state.draining_pending[mdisk] = pending;
  }
}

void DifsCluster::ReleaseClaimedSlot(uint32_t device_index, MinidiskId mdisk,
                                     uint32_t slot, ChunkId chunk_id) {
  DeviceState& state = devices_[device_index];
  auto it = state.slots.find(mdisk);
  if (it == state.slots.end() ||
      it->second[slot] != static_cast<int64_t>(chunk_id)) {
    return;  // mDisk decommissioned meanwhile: HandleMdiskLoss dropped it
  }
  auto pending_it = state.draining_pending.find(mdisk);
  if (pending_it == state.draining_pending.end()) {
    it->second[slot] = kFreeSlot;
    ++state.free_slot_count;
    return;
  }
  // The mDisk started draining while the claim was in flight (the copy's own
  // wear can trigger the drain): HandleMdiskDraining cannot tell a claim
  // from a placed replica, so the claim was counted in draining_pending.
  // Release it as a drained slot — never as new free capacity — and ack the
  // drain if this was its last pending slot.
  it->second[slot] = kUnavailableSlot;
  ReleaseDrainingSlot(device_index, mdisk);
}

void DifsCluster::ReleaseDrainingSlot(uint32_t device_index,
                                      MinidiskId mdisk) {
  DeviceState& state = devices_[device_index];
  auto pending_it = state.draining_pending.find(mdisk);
  if (pending_it != state.draining_pending.end() &&
      --pending_it->second == 0) {
    state.draining_pending.erase(pending_it);
    state.slots.erase(mdisk);
    if (SendAckDrain(device_index, mdisk)) {
      ++stats_.drains_acked;
    }
  }
}

void DifsCluster::ReleaseDrainingReplicas(Chunk& chunk) {
  for (ReplicaLocation& replica : chunk.replicas) {
    if (!replica.live || !replica.draining) {
      continue;
    }
    DeviceState& state = devices_[replica.device];
    auto slot_it = state.slots.find(replica.mdisk);
    if (slot_it != state.slots.end() &&
        slot_it->second[replica.slot] ==
            static_cast<int64_t>(chunk.id)) {
      slot_it->second[replica.slot] = kUnavailableSlot;
    }
    replica.live = false;
    ReleaseDrainingSlot(replica.device, replica.mdisk);
  }
}

void DifsCluster::ProcessEvents() {
  const uint64_t wave_start = stats_.recovery_opage_writes;
  PumpEvents();
  const uint64_t wave = stats_.recovery_opage_writes - wave_start;
  if (wave > 0) {
    ++stats_.recovery_waves;
    stats_.max_wave_recovery_opages =
        std::max(stats_.max_wave_recovery_opages, wave);
    if (trace_ != nullptr) {
      TraceInstant("recovery_wave");
      trace_->CounterSample("recovery_wave_opages", trace_time_us_,
                            static_cast<double>(wave), trace_tid_);
    }
    DebugCheckInvariants();
  }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

uint64_t DifsCluster::RunRepairPass() {
  if (brownout_ != nullptr && brownout_->active() && !reconcile_override_ &&
      !pending_repairs_.empty()) {
    // Brownout: foreground p99 is over the SLO, so background re-replication
    // yields the spindle. The backlog stays queued and drains once a window
    // recovers (or ForceReconcile demands convergence).
    ++stats_.brownout_recovery_deferrals;
    return 0;
  }
  uint64_t recovered = 0;
  // Process only the entries present at pass start; copies can enqueue more
  // (by wearing the target), which the caller's loop handles next pass.
  std::vector<ChunkId> batch(pending_repairs_.begin(),
                             pending_repairs_.end());
  pending_repairs_.clear();
  if (config_.criticality_ordered_recovery) {
    // Repair-storm triage: chunks closest to loss (fewest readable copies,
    // ties by id) get the pass's placement slots and queue room first.
    // Criticality is snapshotted at batch start, and the sort is stable, so
    // the ordering is fully deterministic. The SET of chunks healed matches
    // FIFO when capacity suffices, but individual placements may differ —
    // recoveries consume the shared placement draws in batch order.
    std::stable_sort(batch.begin(), batch.end(), [&](ChunkId a, ChunkId b) {
      const uint32_t ra = chunks_[a].readable_replicas();
      const uint32_t rb = chunks_[b].readable_replicas();
      if (ra != rb) {
        return ra < rb;
      }
      return a < b;
    });
  }
  for (const ChunkId chunk_id : batch) {
    Chunk& chunk = chunks_[chunk_id];
    if (chunk.lost) {
      continue;
    }
    // Bring back to full replication, one replica at a time.
    bool stuck = false;
    while (chunk.live_replicas() < config_.replication && !chunk.lost) {
      const uint32_t live_before = chunk.live_replicas();
      if (RecoverOneReplica(chunk_id)) {
        ++recovered;
        if (chunk.live_replicas() <= live_before) {
          // The copy succeeded but read-repair retired a corrupt source in
          // the same call: net-zero progress. With every source failing its
          // checksum (pathological blanket corruption) this would loop
          // forever — park instead and retry on the next event wave.
          stuck = true;
          break;
        }
      } else {
        stuck = true;
        break;
      }
    }
    if (stuck && !chunk.lost &&
        chunk.live_replicas() < config_.replication) {
      ++stats_.recovery_deferred;
      // Park it until the placement landscape changes (ProcessEvents
      // re-queues parked chunks when new events arrive).
      waiting_capacity_.push_back(chunk_id);
    }
  }
  return recovered;
}

bool DifsCluster::RecoverOneReplica(ChunkId chunk_id) {
  Chunk& chunk = chunks_[chunk_id];
  uint32_t target_device = 0;
  MinidiskId target_mdisk = 0;
  uint32_t target_slot = 0;
  // Source-selection loop: a survivor whose copy fails its end-to-end
  // checksum is retired on the spot (read-repair) and another survivor is
  // tried. Bounded — every retry removes one replica.
  for (;;) {
    // Source: prefer a non-draining replica (guaranteed fresh); fall back to
    // a draining one (the §4.3 grace window exists precisely so this fallback
    // is available). Only non-draining replicas exclude their node — the
    // draining copy is about to vanish, so its node may host the new replica.
    ReplicaLocation* source = nullptr;
    ReplicaLocation* draining_source = nullptr;
    std::vector<uint32_t> exclude_nodes;
    for (ReplicaLocation& replica : chunk.replicas) {
      if (!replica.live) {
        continue;
      }
      if (replica.draining) {
        if (!NodeOut(replica.device)) {
          draining_source = &replica;
        }
        continue;
      }
      // A replica on an out node still excludes its node (the data is there,
      // just unreachable) but cannot serve as the copy source.
      exclude_nodes.push_back(node_of_device(replica.device));
      if (source == nullptr && !NodeOut(replica.device)) {
        source = &replica;
      }
    }
    if (source == nullptr) {
      source = draining_source;
    }
    if (source == nullptr) {
      return false;
    }
    if (!PickTarget(exclude_nodes, &target_device, &target_mdisk,
                    &target_slot)) {
      return false;
    }
    if (!AdmitRecoveryIo(source->device) || !AdmitRecoveryIo(target_device)) {
      // The copy aborts and the chunk parks for a later pass.
      ++stats_.sched_recovery_sheds;
      return false;
    }
    // Claim the slot immediately so concurrent placements in this event wave
    // cannot double-book it.
    ClaimSlot(target_device, target_mdisk, target_slot,
              static_cast<int64_t>(chunk_id));

    // Read the chunk from the survivor (latency/traffic accounting only; the
    // simulator carries no payload bytes). A failed read falls back to ECC-
    // protected re-reads of other replicas in a real system; here it simply
    // counts, since the copy's content is tracked logically.
    DeviceState& source_state = devices_[source->device];
    auto read = WithTransientRetry([&] {
      return source_state.device->ReadRange(
          source->mdisk,
          static_cast<uint64_t>(source->slot) * config_.chunk_opages,
          config_.chunk_opages);
    });
    if (read.ok()) {
      stats_.recovery_opage_reads += config_.chunk_opages;
      CompleteRecoveryIo(source->device, read.value().latency);
    } else {
      ++stats_.uncorrectable_reads;
    }
    if (ObserveCorruption(source->device) == 0) {
      break;  // clean copy source
    }
    // The survivor's checksum does not verify: the copy would propagate
    // corruption. Retire the source (the recovery loop already owns this
    // chunk, so no re-enqueue) and try the next survivor.
    if (MarkReplicaBad(chunk, *source, /*enqueue=*/false)) {
      ReleaseClaimedSlot(target_device, target_mdisk, target_slot, chunk_id);
      continue;
    }
    // Last readable copy: corrupt data beats no data — copy it anyway.
    break;
  }

  // Write every LBA of the new replica.
  DeviceState& target_state = devices_[target_device];
  const uint64_t base =
      static_cast<uint64_t>(target_slot) * config_.chunk_opages;
  SimDuration copy_write_ns = 0;
  for (uint64_t offset = 0; offset < config_.chunk_opages; ++offset) {
    auto write = WithTransientRetry(
        [&] { return target_state.device->Write(target_mdisk, base + offset); });
    if (write.ok()) {
      copy_write_ns += write.value();
    }
    if (!write.ok()) {
      // Target died mid-copy (its own wear, or the write's wear): abandon.
      // If the target mDisk survived (failure had another cause), release
      // the claimed slot — via the drain-aware helper, since the events just
      // processed may have started draining the very mDisk we claimed; if it
      // was decommissioned, HandleMdiskLoss already dropped the slot vector.
      ApplyDeviceEvents(target_device);
      ReleaseClaimedSlot(target_device, target_mdisk, target_slot, chunk_id);
      return false;
    }
    ++stats_.recovery_opage_writes;
  }
  // Prune dead replica records before adding the new one (they can never
  // match a future event and would otherwise accumulate forever).
  std::erase_if(chunk.replicas,
                [](const ReplicaLocation& r) { return !r.live; });
  chunk.replicas.push_back(ReplicaLocation{.device = target_device,
                                           .mdisk = target_mdisk,
                                           .slot = target_slot,
                                           .live = true,
                                           .generation = chunk.generation});
  ++stats_.replicas_recovered;
  // The whole copy occupies the target's queue as one recovery-class op.
  CompleteRecoveryIo(target_device, copy_write_ns);
  if (chunk.live_replicas() >= config_.replication) {
    // Fully replicated again: draining copies are no longer needed.
    ReleaseDrainingReplicas(chunk);
  }
  // The copy itself wears the target device; surface any resulting events
  // (possibly including loss of the replica just written).
  ApplyDeviceEvents(target_device);
  return true;
}

// ---------------------------------------------------------------------------
// Proactive health-driven drain
// ---------------------------------------------------------------------------

void DifsCluster::MigrateOffFlaggedDevices() {
  // Walk chunks in id order and move live replicas off flagged devices.
  // MigrateReplicaOff repoints the record in place; a parked move (no
  // target, shed, aborted copy) retries next tick. Indices are re-checked
  // every iteration because a migration's own wear events can reshape the
  // replica vector under us.
  for (Chunk& chunk : chunks_) {
    if (chunk.lost) {
      continue;
    }
    for (size_t r = 0; r < chunk.replicas.size(); ++r) {
      const ReplicaLocation& replica = chunk.replicas[r];
      if (!replica.live || replica.draining || !Evacuating(replica.device)) {
        continue;
      }
      if (!MigrateReplicaOff(chunk, chunk.replicas[r])) {
        ++stats_.drain_migrations_parked;
      }
    }
  }
}

bool DifsCluster::MigrateReplicaOff(Chunk& chunk, ReplicaLocation& replica) {
  // Every node holding a live non-draining copy — including the source's —
  // is excluded, so the move is a strict spread improvement and the
  // placement policy sees the same used-node set recovery would.
  std::vector<uint32_t> exclude_nodes;
  for (const ReplicaLocation& r : chunk.replicas) {
    if (r.live && !r.draining) {
      exclude_nodes.push_back(node_of_device(r.device));
    }
  }
  uint32_t target_device = 0;
  MinidiskId target_mdisk = 0;
  uint32_t target_slot = 0;
  if (!PickTarget(exclude_nodes, &target_device, &target_mdisk,
                  &target_slot)) {
    return false;
  }
  if (!AdmitRecoveryIo(replica.device) || !AdmitRecoveryIo(target_device)) {
    // Drain I/O rides the recovery class so the priority order and the shed
    // ledger stay intact; the drain-specific sub-counter lets benches report
    // proactive-vs-reactive pressure separately.
    ++stats_.sched_recovery_sheds;
    ++stats_.drain_sched_sheds;
    return false;
  }
  DeviceState& target_state = devices_[target_device];
  ClaimSlot(target_device, target_mdisk, target_slot,
            static_cast<int64_t>(chunk.id));
  // Abort path: drain-aware — the copy's own wear can start draining the
  // claimed mDisk, in which case the claim was counted in draining_pending.
  const auto release_target = [&] {
    ReleaseClaimedSlot(target_device, target_mdisk, target_slot, chunk.id);
  };

  DeviceState& source_state = devices_[replica.device];
  auto read = WithTransientRetry([&] {
    return source_state.device->ReadRange(
        replica.mdisk,
        static_cast<uint64_t>(replica.slot) * config_.chunk_opages,
        config_.chunk_opages);
  });
  if (!read.ok()) {
    ++stats_.uncorrectable_reads;
    release_target();
    return false;
  }
  stats_.drain_opage_reads += config_.chunk_opages;
  CompleteRecoveryIo(replica.device, read.value().latency);
  if (ObserveCorruption(replica.device) > 0) {
    // Copying would propagate corruption: hand the replica to the reactive
    // read-repair path instead of migrating it.
    release_target();
    MarkReplicaBad(chunk, replica, /*enqueue=*/true);
    return false;
  }

  const uint64_t base =
      static_cast<uint64_t>(target_slot) * config_.chunk_opages;
  SimDuration copy_write_ns = 0;
  for (uint64_t offset = 0; offset < config_.chunk_opages; ++offset) {
    auto write = WithTransientRetry(
        [&] { return target_state.device->Write(target_mdisk, base + offset); });
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
  // copy keeps its generation — a stale source stays stale, and resync still
  // owns freshness.
  FreeSlot(replica.device, replica.mdisk, replica.slot,
           static_cast<int64_t>(chunk.id));
  replica.device = target_device;
  replica.mdisk = target_mdisk;
  replica.slot = target_slot;
  ++stats_.drain_replicas_migrated;
  // The copy wears the target; surface any resulting events (`replica` must
  // not be touched past this point — event handling can reshape the vector).
  ApplyDeviceEvents(target_device);
  return true;
}

// ---------------------------------------------------------------------------
// Bootstrap and foreground I/O
// ---------------------------------------------------------------------------

Status DifsCluster::Bootstrap() {
  if (bootstrapped_) {
    return FailedPreconditionError("Bootstrap: already bootstrapped");
  }
  bootstrapped_ = true;
  uint64_t total_slots = 0;
  for (const DeviceState& state : devices_) {
    total_slots += state.free_slot_count;
  }
  const uint64_t target_chunks = static_cast<uint64_t>(
      static_cast<double>(total_slots) * config_.fill_fraction /
      config_.replication);
  chunks_.reserve(target_chunks);
  for (uint64_t c = 0; c < target_chunks; ++c) {
    Chunk chunk;
    chunk.id = c;
    chunk.checksum = codec_.Stamp(c, chunk.generation);
    std::vector<uint32_t> used_nodes;
    for (uint32_t r = 0; r < config_.replication; ++r) {
      uint32_t device_index = 0;
      MinidiskId mdisk = 0;
      uint32_t slot = 0;
      if (!PickTarget(used_nodes, &device_index, &mdisk, &slot)) {
        // Cluster cannot hold more fully-replicated chunks; roll back the
        // partial placement and stop.
        for (const ReplicaLocation& placed : chunk.replicas) {
          FreeSlot(placed.device, placed.mdisk, placed.slot,
                   static_cast<int64_t>(c));
        }
        return OkStatus();
      }
      ClaimSlot(device_index, mdisk, slot, static_cast<int64_t>(c));
      used_nodes.push_back(node_of_device(device_index));
      chunk.replicas.push_back(ReplicaLocation{
          .device = device_index, .mdisk = mdisk, .slot = slot, .live = true});
    }
    chunks_.push_back(std::move(chunk));
    // Initial load: write every LBA of every replica. Failures are
    // tolerated — if the load itself wears out an mDisk, the event wave in
    // ProcessEvents repairs the affected chunks.
    Chunk& placed = chunks_.back();
    for (ReplicaLocation& replica : placed.replicas) {
      for (uint64_t offset = 0; offset < config_.chunk_opages; ++offset) {
        (void)WriteReplica(replica, offset);
      }
    }
    ProcessEvents();
  }
  return OkStatus();
}

StatusOr<SimDuration> DifsCluster::WriteReplica(ReplicaLocation& replica,
                                                uint64_t offset) {
  if (!replica.live || replica.draining) {
    return FailedPreconditionError("replica not writable");
  }
  if (NodeOut(replica.device)) {
    // Unreachable node: the write is skipped, not queued; the replica goes
    // stale and resync-driven recovery handles it if the mDisk dies out.
    ++stats_.outage_write_skips;
    return UnavailableError("WriteReplica: node under outage");
  }
  DeviceState& state = devices_[replica.device];
  return WithTransientRetry([&] {
    return state.device->Write(
        replica.mdisk,
        static_cast<uint64_t>(replica.slot) * config_.chunk_opages + offset);
  });
}

bool DifsCluster::AdmitForegroundWrite(const Chunk& chunk,
                                       uint64_t* extra_ns) {
  // Replica writes fan out in parallel, so the op's queue delay is the max
  // across its target devices. Admission is all-or-nothing: the first
  // refusal sheds the whole op before any replica is touched — a partial
  // fan-out would leave stale replicas whose checksum mismatches pollute the
  // end-to-end integrity ledger.
  uint64_t extra = 0;
  for (const ReplicaLocation& replica : chunk.replicas) {
    if (!replica.live || replica.draining || NodeOut(replica.device)) {
      continue;  // WriteReplica refuses these targets anyway
    }
    const QueueAdmission admission = Queue(replica.device)
        ->Admit(OpClass::kForegroundWrite, sched_clock_ns_);
    extra = std::max(extra, admission.wait_ns + admission.backoff_ns);
    if (!admission.admitted) {
      *extra_ns = extra;
      return false;
    }
  }
  *extra_ns = extra;
  return true;
}

Status DifsCluster::WriteChunkBody(Chunk& chunk, uint64_t offset,
                                   SimDuration* cost_ns) {
  if (chunk.lost) {
    return DataLossError("WriteChunkBody: chunk lost");
  }
  uint64_t sched_extra_ns = 0;  // parallel admission wait + shed backoff
  if (QueueingEnabled()) {
    sched_clock_ns_ += config_.sched.arrival_interval_ns;  // one arrival
    if (!AdmitForegroundWrite(chunk, &sched_extra_ns)) {
      // Shed whole: no replica was touched, so the chunk's generation,
      // checksum, and replica stamps all stay consistent.
      return ShedForegroundOp(/*write=*/true, sched_extra_ns, sched_extra_ns,
                              cost_ns, "WriteChunkBody: shed at admission");
    }
  }
  const uint64_t backoff_before = stats_.backoff_ns;
  SimDuration slowest = 0;
  // The write changes the chunk's contents: restamp its checksum metadata
  // (every replica carries the new generation).
  ++chunk.generation;
  chunk.checksum = codec_.Stamp(chunk.id, chunk.generation);
  for (ReplicaLocation& replica : chunk.replicas) {
    if (!replica.live) {
      continue;
    }
    // Failures are tolerated: the replica's device just decommissioned or
    // bricked and the event wave below repairs the chunk. Successful writes
    // stamp the replica with the new generation — a replica that misses
    // writes (dark device) keeps its old stamp and is stale on return.
    auto write = WriteReplica(replica, offset);
    if (write.ok()) {
      replica.generation = chunk.generation;
      if (QueueingEnabled()) {
        Queue(replica.device)->Complete(OpClass::kForegroundWrite,
                                        write.value());
      }
      // Replica writes fan out in parallel; the logical write completes when
      // the slowest one does.
      slowest = std::max(slowest, write.value());
    }
  }
  const SimDuration total =
      slowest + (stats_.backoff_ns - backoff_before) + sched_extra_ns;
  if (cost_ns != nullptr) {
    *cost_ns = total;
  }
  stats_.sched_wait_ns += sched_extra_ns;
  RecordForegroundLatency(total);
  ++stats_.foreground_opage_writes;
  ProcessEvents();
  MaybeRunMaintenance();
  return OkStatus();
}

Status DifsCluster::StepWrites(uint64_t opage_writes) {
  if (chunks_.empty()) {
    return FailedPreconditionError("StepWrites: bootstrap first");
  }
  for (uint64_t i = 0; i < opage_writes; ++i) {
    const ChunkId chunk_id = rng_.UniformU64(chunks_.size());
    Chunk& chunk = chunks_[chunk_id];
    if (chunk.lost) {
      continue;
    }
    const uint64_t offset = rng_.UniformU64(config_.chunk_opages);
    (void)WriteChunkBody(chunk, offset, nullptr);
  }
  return OkStatus();
}

Status DifsCluster::WriteChunkAt(ChunkId chunk_id, uint64_t offset,
                                 SimDuration* cost_ns) {
  if (chunks_.empty()) {
    return FailedPreconditionError("WriteChunkAt: bootstrap first");
  }
  if (chunk_id >= chunks_.size()) {
    return InvalidArgumentError("WriteChunkAt: chunk id out of range");
  }
  if (offset >= config_.chunk_opages) {
    return InvalidArgumentError("WriteChunkAt: offset out of range");
  }
  Status status = WriteChunkBody(chunks_[chunk_id], offset, cost_ns);
  if (status.code() == StatusCode::kDataLoss) {
    return DataLossError("WriteChunkAt: chunk lost");
  }
  return status;
}

Status DifsCluster::ReadChunkImpl(ChunkId chunk_id, const uint64_t* offset_ptr,
                                  SimDuration* cost_ns) {
  Chunk& chunk = chunks_[chunk_id];
  if (chunk.lost || chunk.readable_replicas() == 0) {
    return DataLossError("chunk unreadable");
  }
  // Pick a random readable replica (draining ones still serve reads),
  // excluding replicas on an out node. Without an outage the candidate
  // count equals readable_replicas(), so the RNG schedule is unchanged.
  uint32_t candidates = 0;
  for (const ReplicaLocation& r : chunk.replicas) {
    candidates += (r.live && !NodeOut(r.device)) ? 1 : 0;
  }
  if (candidates == 0) {
    return UnavailableError("every readable copy behind the outage");
  }
  uint32_t live_index = static_cast<uint32_t>(rng_.UniformU64(candidates));
  ReplicaLocation* replica = nullptr;
  for (ReplicaLocation& r : chunk.replicas) {
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
      for (const ReplicaLocation& r : chunk.replicas) {
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
    // stamp in chunk metadata.
    const uint64_t observed = codec_.CorruptObservation(chunk.checksum);
    if (!ChecksumCodec::Verify(chunk.checksum, observed)) {
      // Read-repair: retire the corrupt replica, re-serve the read from a
      // survivor (retiring any survivor that also fails its checksum), and
      // let the recovery scheduler re-replicate.
      if (MarkReplicaBad(chunk, *replica, /*enqueue=*/true)) {
        for (ReplicaLocation& survivor : chunk.replicas) {
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
          if (again > 0 &&
              !MarkReplicaBad(chunk, survivor, /*enqueue=*/true)) {
            break;  // last readable copy retained; nothing cleaner exists
          }
        }
      }
      ProcessEvents();
    }
  } else if (!read.ok() && read.status().code() == StatusCode::kDataLoss) {
    ++stats_.uncorrectable_reads;
    // Scrub: rewrite the page so future reads see freshly-programmed flash
    // (content restored from a healthy replica in a real system).
    auto repair = WriteReplica(*replica, offset);
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
  if (chunks_.empty()) {
    return FailedPreconditionError("StepReads: bootstrap first");
  }
  for (uint64_t i = 0; i < opage_reads; ++i) {
    const ChunkId chunk_id = rng_.UniformU64(chunks_.size());
    // Unreadable / fully-outaged chunks return early without drawing — the
    // same skip the legacy loop's `continue` performed.
    (void)ReadChunkImpl(chunk_id, nullptr, nullptr);
  }
  return OkStatus();
}

Status DifsCluster::ReadChunkAt(ChunkId chunk_id, uint64_t offset,
                                SimDuration* cost_ns) {
  if (chunks_.empty()) {
    return FailedPreconditionError("ReadChunkAt: bootstrap first");
  }
  if (chunk_id >= chunks_.size()) {
    return InvalidArgumentError("ReadChunkAt: chunk id out of range");
  }
  if (offset >= config_.chunk_opages) {
    return InvalidArgumentError("ReadChunkAt: offset out of range");
  }
  return ReadChunkImpl(chunk_id, &offset, cost_ns);
}

// ---------------------------------------------------------------------------
// End-to-end integrity & background scrub
// ---------------------------------------------------------------------------

bool DifsCluster::MarkReplicaBad(Chunk& chunk, ReplicaLocation& replica,
                                 bool enqueue) {
  if (!replica.live) {
    return false;
  }
  if (!chunk.lost && chunk.readable_replicas() <= 1) {
    // Last readable copy: a real system keeps the corrupt bytes and attempts
    // partial recovery rather than deleting the only copy (Tai et al.'s
    // live-recovery argument) — and losing the chunk here would turn every
    // detected corruption into data loss.
    ++stats_.integrity_retained_last_copies;
    return false;
  }
  ++stats_.integrity_marked_bad;
  TraceInstant("replica_marked_bad");
  RetireReplica(chunk, replica, enqueue);
  return true;
}

void DifsCluster::RetireReplica(Chunk& chunk, ReplicaLocation& replica,
                                bool enqueue) {
  DeviceState& state = devices_[replica.device];
  auto it = state.slots.find(replica.mdisk);
  if (it != state.slots.end() &&
      it->second[replica.slot] == static_cast<int64_t>(chunk.id)) {
    if (replica.draining) {
      // Mirror ReleaseDrainingReplicas: the slot can take no new data, and
      // the mDisk's drain completes once its last pending chunk is gone.
      it->second[replica.slot] = kUnavailableSlot;
      ReleaseDrainingSlot(replica.device, replica.mdisk);
    } else {
      it->second[replica.slot] = kFreeSlot;
      ++state.free_slot_count;
    }
  }
  replica.live = false;
  ++stats_.replicas_lost;
  if (!chunk.lost && enqueue && chunk.live_replicas() < config_.replication) {
    pending_repairs_.push_back(chunk.id);
  }
}

uint64_t DifsCluster::ScrubStep(uint64_t opage_budget) {
  if (opage_budget == 0 || chunks_.empty()) {
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
      chunks_.size() * (static_cast<uint64_t>(config_.replication) + 2);
  while (reads < opage_budget && skipped <= skip_limit) {
    if (scrub_cursor_.major >= chunks_.size()) {
      scrub_cursor_.major = 0;
      scrub_cursor_.minor = 0;
    }
    Chunk& chunk = chunks_[scrub_cursor_.major];
    const uint64_t minor_size =
        chunk.replicas.size() * config_.chunk_opages;
    if (chunk.lost || minor_size == 0 ||
        scrub_cursor_.minor >= minor_size) {
      ++skipped;
      if (scrub_cursor_.SkipMajor(chunks_.size())) {
        ++stats_.scrub_passes;
      }
      continue;
    }
    const uint32_t replica_index =
        static_cast<uint32_t>(scrub_cursor_.minor / config_.chunk_opages);
    const uint64_t offset = scrub_cursor_.minor % config_.chunk_opages;
    ReplicaLocation& replica = chunk.replicas[replica_index];
    if (!replica.live || NodeOut(replica.device)) {
      // Skip the rest of this replica's oPages.
      ++skipped;
      scrub_cursor_.minor =
          (static_cast<uint64_t>(replica_index) + 1) * config_.chunk_opages;
      if (scrub_cursor_.minor >= minor_size &&
          scrub_cursor_.SkipMajor(chunks_.size())) {
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
        if (scrub_cursor_.Advance(chunks_.size(), minor_size)) {
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
      const uint64_t observed = codec_.CorruptObservation(chunk.checksum);
      if (!ChecksumCodec::Verify(chunk.checksum, observed)) {
        stats_.scrub_detected += corrupt;
        // Latent corruption caught before a foreground read (or the loss of
        // the last good replica): repair through the same read-repair path.
        MarkReplicaBad(chunk, replica, /*enqueue=*/true);
        ProcessEvents();
      }
    } else if (!read.ok() && read.status().code() == StatusCode::kDataLoss) {
      ++stats_.uncorrectable_reads;
      if (WriteReplica(replica, offset).ok()) {
        ++stats_.scrub_repairs;
      }
      ProcessEvents();
    }
    if (scrub_cursor_.Advance(chunks_.size(), minor_size)) {
      ++stats_.scrub_passes;
    }
  }
  return reads;
}

// ---------------------------------------------------------------------------
// Drains, suspect windows, telemetry, invariants
// ---------------------------------------------------------------------------

Status DifsCluster::DeliverAckDrain(uint32_t device_index, MinidiskId mdisk) {
  return WithTransientRetry(
      [&] { return ClusterCore::DeliverAckDrain(device_index, mdisk); });
}

void DifsCluster::ReconcileReturnedUnit(uint32_t device_index,
                                        MinidiskId mdisk, uint32_t slot,
                                        int64_t ref) {
  // A replica is fresh iff its generation matches the chunk's (it missed no
  // foreground writes) and the device reports no rolled-back page in its
  // LBA range (its last pre-crash writes were made durable). Anything else
  // is pruned and re-replicated through the normal recovery path.
  Chunk& chunk = chunks_[static_cast<uint64_t>(ref)];
  for (ReplicaLocation& replica : chunk.replicas) {
    if (!replica.live || replica.device != device_index ||
        replica.mdisk != mdisk || replica.slot != slot) {
      continue;
    }
    const bool fresh =
        replica.generation == chunk.generation &&
        !devices_[device_index].device->AnyRolledBackInRange(
            mdisk, static_cast<uint64_t>(slot) * config_.chunk_opages,
            config_.chunk_opages);
    if (fresh) {
      ++stats_.suspect_replicas_revived;
      return;
    }
    ++stats_.suspect_replicas_stale;
    if (!chunk.lost && chunk.readable_replicas() <= 1) {
      // Last readable copy: stale data beats no data. Keep it; a later
      // foreground write will freshen it in place.
      return;
    }
    RetireReplica(chunk, replica, /*enqueue=*/true);
    return;
  }
}

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

Status DifsCluster::CheckInvariants() const {
  if (Status core = ClusterCore::CheckInvariants(); !core.ok()) {
    return core;
  }
  // Grace-window drains: a replica is flagged draining exactly when its
  // mDisk is, and draining_pending counts the mDisk's occupied slots.
  for (uint32_t d = 0; d < devices_.size(); ++d) {
    const DeviceState& state = devices_[d];
    std::unordered_map<MinidiskId, uint32_t> occupied_per_mdisk;
    for (const auto& [mdisk, slots] : state.slots) {
      const bool mdisk_draining = state.draining_pending.count(mdisk) != 0;
      for (uint32_t slot = 0; slot < slots.size(); ++slot) {
        if (slots[slot] < 0) {
          continue;
        }
        ++occupied_per_mdisk[mdisk];
        for (const ReplicaLocation& r :
             chunks_[static_cast<uint64_t>(slots[slot])].replicas) {
          if (r.live && r.device == d && r.mdisk == mdisk && r.slot == slot &&
              r.draining != mdisk_draining) {
            return InternalError(
                "replica draining flag out of sync on device " +
                std::to_string(d) + " mdisk " + std::to_string(mdisk));
          }
        }
      }
    }
    for (const auto& [mdisk, pending] : state.draining_pending) {
      if (state.slots.count(mdisk) == 0) {
        return InternalError("draining_pending for unmapped mdisk " +
                             std::to_string(mdisk) + " on device " +
                             std::to_string(d));
      }
      const auto occupied_it = occupied_per_mdisk.find(mdisk);
      const uint32_t occupied =
          occupied_it == occupied_per_mdisk.end() ? 0 : occupied_it->second;
      if (pending != occupied) {
        return InternalError("device " + std::to_string(d) + " mdisk " +
                             std::to_string(mdisk) + " draining_pending=" +
                             std::to_string(pending) + " but " +
                             std::to_string(occupied) + " slots occupied");
      }
    }
  }
  // Replication bounds, and the lost flag agrees with readability.
  for (const Chunk& chunk : chunks_) {
    if (chunk.live_replicas() > config_.replication) {
      return InternalError("chunk " + std::to_string(chunk.id) +
                           " over-replicated: " +
                           std::to_string(chunk.live_replicas()));
    }
    if (chunk.lost && chunk.readable_replicas() != 0) {
      return InternalError("chunk " + std::to_string(chunk.id) +
                           " marked lost but still readable");
    }
    if (!chunk.lost && !chunk.replicas.empty() &&
        chunk.readable_replicas() == 0) {
      return InternalError("chunk " + std::to_string(chunk.id) +
                           " unreadable but not marked lost");
    }
  }
  return OkStatus();
}

void DifsCluster::AppendLiveUnits(uint64_t group,
                                  std::vector<LiveUnit>* out) const {
  const Chunk& chunk = chunks_[group];
  for (const ReplicaLocation& r : chunk.replicas) {
    if (r.live) {
      out->push_back(LiveUnit{.device = r.device,
                              .mdisk = r.mdisk,
                              .slot = r.slot,
                              .ref = static_cast<int64_t>(chunk.id),
                              .spreads = !r.draining});
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t DifsCluster::chunks_fully_replicated() const {
  uint64_t n = 0;
  for (const Chunk& chunk : chunks_) {
    n += (!chunk.lost && chunk.live_replicas() >= config_.replication) ? 1 : 0;
  }
  return n;
}

uint64_t DifsCluster::chunks_under_replicated() const {
  uint64_t n = 0;
  for (const Chunk& chunk : chunks_) {
    n += (!chunk.lost && chunk.live_replicas() < config_.replication) ? 1 : 0;
  }
  return n;
}

}  // namespace salamander
