// Erasure-coded distributed storage on Salamander devices.
//
// The paper argues a diFS absorbs minidisk failures through its "existing,
// end-to-end redundancy mechanisms"; in production that is increasingly
// erasure coding (RS(k+m)) rather than 3-way replication. This cluster
// stores *stripes*: k data cells + m parity cells, each cell one mDisk slot
// on a distinct node. Any m cell losses are tolerated; rebuilding one lost
// cell reads k surviving cells (k x reconstruction traffic — the classic EC
// trade against replication's 1 x), and every foreground write updates its
// data cell plus all m parity cells.
//
// Minidisk-granular failures interact with EC in Salamander's favour: a lost
// 1 MiB cell costs k MiB of rebuild reads, so shedding capacity in mDisk
// units instead of whole devices divides each rebuild burst by the number of
// mDisks per device, exactly as with replication.
#ifndef SALAMANDER_DIFS_EC_CLUSTER_H_
#define SALAMANDER_DIFS_EC_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/minidisk.h"
#include "difs/cluster_core.h"
#include "telemetry/metrics.h"

namespace salamander {

using StripeId = uint64_t;

// EC-specific config; the fields both schemes share (devices per node,
// fill, seed, sched, placement & drain, maintenance interval, faults,
// suspect windows) come from ClusterConfig.
struct EcConfig : ClusterConfig {
  uint32_t nodes = 9;
  // RS(k + m): tolerate any m cell losses per stripe.
  uint32_t data_cells = 4;    // k
  uint32_t parity_cells = 2;  // m
  // Cell size in oPages; Salamander devices set mSize equal to this.
  uint64_t cell_opages = 64;
};

// EC-specific counters on top of the shared ClusterStats.
struct EcStats : ClusterStats {
  uint64_t foreground_logical_writes = 0;  // logical oPage updates
  uint64_t foreground_device_writes = 0;   // data + parity device writes
  uint64_t rebuild_opage_reads = 0;        // k-way reconstruction reads
  uint64_t rebuild_opage_writes = 0;       // rebuilt cell writes
  uint64_t cells_lost = 0;
  uint64_t cells_rebuilt = 0;
  uint64_t degraded_reads = 0;             // reads served via reconstruction
  uint64_t stripes_lost = 0;               // > m concurrent cell losses
  uint64_t rebuild_deferred = 0;

  uint64_t integrity_retained_cells = 0;  // corrupt cell kept: stripe at k
  uint64_t suspect_cells_revived = 0;     // survived the power loss intact
  uint64_t suspect_cells_stale = 0;       // missed/lost writes: rebuilt
  uint64_t sched_rebuild_sheds = 0;       // rebuild attempts refused admission
  uint64_t brownout_rebuild_deferrals = 0;  // rebuild waves parked under SLO
  uint64_t drain_cells_migrated = 0;      // cells moved off ahead of failure

  uint64_t rebuild_read_bytes() const { return rebuild_opage_reads * 4096; }
  uint64_t rebuild_write_bytes() const { return rebuild_opage_writes * 4096; }
};

// One cell's placement. `cell` is the stable index within the stripe
// (0..k-1 data, k..k+m-1 parity).
struct CellLocation {
  uint32_t cell = 0;
  uint32_t device = 0;
  MinidiskId mdisk = 0;
  uint32_t slot = 0;
  bool live = false;
  // Stripe generation of the last write that durably landed on this cell
  // (the PR-4 stamp). Cells the update stream never targeted keep an older
  // generation and are still fresh — see EcCluster suspect reconciliation.
  uint64_t generation = 0;
  // True when the most recent write targeting this cell did not land (node
  // outage skip, dark device): the on-flash bytes lag the stripe's
  // checksum generation.
  bool stale = false;
};

struct Stripe {
  StripeId id = 0;
  std::vector<CellLocation> cells;  // indexed by cell number, stable
  bool lost = false;
  // End-to-end integrity metadata (see Chunk::checksum).
  uint64_t checksum = 0;
  uint64_t generation = 0;

  uint32_t live_cells() const {
    uint32_t n = 0;
    for (const CellLocation& cell : cells) {
      n += cell.live ? 1 : 0;
    }
    return n;
  }
};

class EcCluster final : public ClusterCore {
 public:
  EcCluster(const EcConfig& config, const DeviceFactory& device_factory);

  // Places stripes (k+m node-disjoint cells each) and writes every LBA.
  Status Bootstrap();

  // Issues `logical_writes` random logical oPage updates; each writes its
  // data cell and all m parity cells (the EC read-modify-write).
  Status StepWrites(uint64_t logical_writes);

  // Issues `reads` random logical oPage reads. A read whose data cell is
  // missing is served degraded: k surviving cells are read to reconstruct.
  Status StepReads(uint64_t reads);

  // ---- Targeted foreground ops (the traffic engine's entry points) --------
  // Same semantics as one StepWrites/StepReads iteration with the caller
  // choosing the logical location. A TrafficEngine address maps as
  //   stripe    = addr / (data_cells * cell_opages)
  //   data_cell = (addr / cell_opages) % data_cells
  //   offset    = addr % cell_opages
  // When `cost_ns` is non-null it receives the op's simulated service time:
  // the data and parity cells are written in parallel (slowest wins); a
  // degraded read waits for its slowest reconstruction source.

  // kDataLoss when the stripe is lost; kInvalidArgument out of range.
  Status WriteLogicalAt(StripeId stripe_id, uint32_t data_cell,
                        uint64_t offset, SimDuration* cost_ns = nullptr);
  Status ReadLogicalAt(StripeId stripe_id, uint32_t data_cell,
                       uint64_t offset, SimDuration* cost_ns = nullptr);

  uint32_t data_cells() const { return config_.data_cells; }
  uint64_t cell_opages() const { return config_.cell_opages; }
  // Logical oPage address space a traffic engine should target.
  uint64_t logical_opages() const {
    return stripes_.size() * config_.data_cells * config_.cell_opages;
  }

  // Drains device events and runs the rebuild scheduler (also invoked
  // internally by every foreground op).
  void ProcessEvents() override;

  const EcStats& stats() const { return stats_; }
  uint64_t total_stripes() const { return stripes_.size(); }
  uint64_t stripes_fully_redundant() const;
  uint64_t stripes_degraded() const;
  const Stripe& stripe(StripeId id) const { return stripes_[id]; }

  // Scrapes EcStats with difs.*-parity names ("<prefix>ec.*"), replication-
  // health gauges, and every device's "<prefix>ssd.*" subtree. Cluster-level
  // injected faults land under "<prefix>cluster_faults.". Additive — collect
  // once per cluster (see telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

 private:
  static int64_t PackRef(StripeId stripe, uint32_t cell) {
    return static_cast<int64_t>((stripe << 8) | cell);
  }
  static StripeId RefStripe(int64_t ref) {
    return static_cast<StripeId>(ref) >> 8;
  }
  static uint32_t RefCell(int64_t ref) {
    return static_cast<uint32_t>(ref & 0xff);
  }

  // ---- Core hooks ----------------------------------------------------------
  const ClusterConfig& shared_config() const override { return config_; }
  ClusterStats& shared_stats() override { return stats_; }
  const ClusterStats& shared_stats() const override { return stats_; }
  void LoseUnit(uint32_t device_index, MinidiskId mdisk, uint32_t slot,
                int64_t ref) override;
  // EC forgoes replication's grace window: parity can reconstruct any cell,
  // so a draining mDisk is retired like a lost one — its cells queued for
  // rebuild — and the drain is acked on the spot.
  void HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) override;
  // One pass over the pending-rebuild queue; returns cells rebuilt.
  uint64_t RunRepairPass() override;
  // Walks stripes in id order and moves live cells off flagged devices.
  void MigrateOffFlaggedDevices() override;
  // Fresh: the cell missed no write while dark (not `stale`) and no LBA in
  // its range rolled back. Stale cells are retired and rebuilt from parity.
  void ReconcileReturnedUnit(uint32_t device_index, MinidiskId mdisk,
                             uint32_t slot, int64_t ref) override;
  uint64_t unit_groups() const override { return stripes_.size(); }
  uint64_t GroupOfRef(int64_t ref) const override { return RefStripe(ref); }
  void AppendLiveUnits(uint64_t group,
                       std::vector<LiveUnit>* out) const override;

  bool RebuildOneCell(StripeId stripe_id);
  // Moves one live cell off a flagged device (same contract as
  // DifsCluster::MigrateReplicaOff).
  bool MigrateCellOff(Stripe& stripe, CellLocation& cell);
  // Writes one cell oPage; on success returns the device write latency.
  StatusOr<SimDuration> WriteCell(CellLocation& cell, uint64_t offset);
  // Shared body of StepWrites and WriteLogicalAt: stamps the new stripe
  // generation and writes the data cell plus all parity cells. kDataLoss
  // (doing nothing further) when the stripe is lost; kUnavailable when the
  // op is shed whole at queue admission. Draws no RNG.
  Status WriteLogicalBody(Stripe& stripe, uint32_t data_cell, uint64_t offset,
                          SimDuration* cost_ns);
  // Shared body of StepReads and ReadLogicalAt. Draws no RNG.
  Status ReadLogicalBody(Stripe& stripe, uint32_t data_cell, uint64_t offset,
                         SimDuration* cost_ns);

  // Retires a corrupt cell and (unless `enqueue` is false — the rebuild loop
  // already owns the stripe) queues the stripe for rebuild. Refuses when the
  // stripe is already at its reconstruction floor (k live cells) — dropping
  // the cell would lose the stripe; counts integrity_retained_cells.
  bool MarkCellBad(Stripe& stripe, CellLocation& cell, bool enqueue = true);
  // Drops a live cell: frees its slot, marks it dead, and queues the stripe
  // for rebuild when `enqueue`.
  void RetireCell(Stripe& stripe, CellLocation& cell, bool enqueue);

  // Admits the write fan-out (data cell + parity cells) at kForegroundWrite
  // on every target device, all-or-nothing; `extra_ns` receives the max of
  // the per-device waits (the fan-out is parallel) plus any shed backoff.
  bool AdmitForegroundWrite(const Stripe& stripe, uint32_t data_cell,
                            uint64_t* extra_ns);

  const EcConfig config_;
  EcStats stats_;
  std::vector<Stripe> stripes_;
};

}  // namespace salamander

#endif  // SALAMANDER_DIFS_EC_CLUSTER_H_
