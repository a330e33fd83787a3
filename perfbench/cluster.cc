// The two cluster workloads: multi-tenant traffic replayed through the
// targeted entry points of a replicated diFS (replicated-traffic) or an
// RS(4+2) erasure-coded cluster under device faults (ec-faults).
//
// replicated-traffic: 6 nodes, R = 3, 64-oPage chunks, fill 0.5, RegenS
//   Small devices at PEC 640 whose 8,192-entry L2P map is twice the 4,096-
//   entry DRAM window. Four mixed-arrival Zipf(0.99) tenants at 50% reads
//   through the queueing layer (depth 64) with 800 us arrival spacing, which
//   keeps sheds at zero; 240 days so the bursty tenant's on/off phases
//   average out and every seed replays about the same number of ops.
//   Stresses replica fan-out, admission, the L2P miss path and the traffic
//   engine; no fleet, recovery or crash.
// ec-faults: 9 nodes, 64-oPage cells, unbounded L2P map, four steady tenants
//   at 80% reads over 120 days. Every device has its own injector: power
//   loss (per device-day) with torn journal tails, program failures and
//   silent read corruption, plus 8-tick suspect windows. Each day the
//   harness crashes at most one device that loses power, replays the day's
//   ops, restarts it (journal replay) and reconciles, as chaos_soak does.
//   Covers reconstruction, degraded reads, rebuild and integrity detection;
//   the L2P window stays off because its extra map-page wear under power
//   loss wears these small devices out.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "ecc/tiredness.h"
#include "faults/fault_injector.h"
#include "flash/wear_model.h"
#include "ladder.h"
#include "sched/queueing.h"
#include "telemetry/metrics.h"
#include "workload/traffic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using salamander::DifsCluster;
using salamander::EcCluster;
using salamander::FaultInjector;
using salamander::FaultSite;
using salamander::LogHistogram;
using salamander::MetricRegistry;
using salamander::SimDuration;
using salamander::SsdDevice;
using salamander::Status;
using salamander::TrafficOp;

// Shared by both shapes: chunk (replicated) or cell (EC) size, which is
// also the devices' mSize; fill fraction; endurance; tenant count.
constexpr uint64_t kUnitOPages = 64;
constexpr double kFillFraction = 0.5;
constexpr uint32_t kNominalPec = 640;
constexpr uint32_t kTenants = 4;

struct ClusterShape {
  const char* name = "";
  bool ec = false;
  uint32_t nodes = 6;
  uint64_t l2p_cache_entries = 0;
  salamander::SchedConfig sched;
  // Rotate steady/diurnal/bursty tenants; otherwise every tenant is steady.
  bool mixed_arrivals = true;
  double ops_per_day = 0.0;  // per tenant
  double read_fraction = 0.5;
  uint32_t days = 0;
  bool faults = false;
  salamander::FaultConfig device_faults;
  uint32_t suspect_grace_ticks = 0;
};

ClusterShape ReplicatedShape(bool tiny) {
  ClusterShape shape;
  shape.name = "replicated-traffic";
  shape.nodes = 6;
  shape.l2p_cache_entries = 4096;
  shape.sched.queue_depth = 64;
  shape.sched.arrival_interval_ns = 800 * salamander::kMicrosecond;
  shape.read_fraction = 0.5;
  shape.days = tiny ? 4 : 240;
  shape.ops_per_day = tiny ? 2000 : 625;
  return shape;
}

ClusterShape EcShape(bool tiny) {
  ClusterShape shape;
  shape.name = "ec-faults";
  shape.ec = true;
  shape.nodes = 9;
  shape.read_fraction = 0.8;
  // Steady tenants: the fault schedule is what this workload varies, and a
  // bursty tenant would make each seed's op count differ by about 10%.
  shape.mixed_arrivals = false;
  shape.days = tiny ? 12 : 120;
  shape.ops_per_day = tiny ? 1200 : 2500;
  shape.faults = true;
  // The tiny size keeps about half as many power losses in a tenth of the
  // days.
  shape.device_faults.power_loss = tiny ? 0.1 : 0.02;
  shape.device_faults.torn_journal_write = 0.6;
  shape.device_faults.program_fail = 0.001;
  shape.device_faults.read_corrupt = 0.0005;
  shape.suspect_grace_ticks = 8;
  return shape;
}

// The cluster counters both schemes report, under one set of names.
struct ClusterCounters {
  uint64_t device_writes = 0;  // foreground replica/data+parity writes
  uint64_t recovery_writes = 0;
  uint64_t recovery_reads = 0;
  uint64_t rebuilt = 0;
  uint64_t deferred = 0;
  uint64_t degraded_reads = 0;
  uint64_t data_lost = 0;
  uint64_t suspect_windows = 0;
  uint64_t suspect_returned = 0;
  uint64_t transient_retries = 0;
  uint64_t maintenance_ticks = 0;
  uint64_t integrity_detected = 0;
  uint64_t integrity_marked_bad = 0;
  uint64_t sheds = 0;
  uint64_t wait_ns = 0;
  uint64_t hedged_reads = 0;
  uint64_t hedge_wins = 0;
  uint64_t brownout_entered = 0;
};

struct ReplayOutcome {
  double setup_s = 0.0;
  uint64_t ladder_builds = 0;  // ComputeTirednessLadder calls in set-up
  double replay_s = 0.0;
  std::vector<double> day_s;  // host seconds of each replay day
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t total_cost_ns = 0;
  LogHistogram read_ns;  // simulated service cost per served op
  LogHistogram write_ns;
  LogHistogram queue_wait_ns;
  double emit_ns = 0.0;  // host time inside TrafficEngine::EmitDay
  Samples restart_ms;
  Samples reconcile_us;
  uint64_t power_losses = 0;
  uint64_t restarts = 0;
  uint64_t upgrades = 0;  // dark devices found bricked at restart time
  uint64_t restart_failures = 0;
  uint64_t injected[salamander::FaultStats::kSites] = {};
  uint64_t journal_records = 0;  // sum of the devices' journal sizes
  uint64_t journal_replays = 0;
  // The library's own counts, summed over devices: SsdDevice::restarts()
  // and Ftl::power_losses().
  uint64_t device_restarts = 0;
  uint64_t ftl_power_losses = 0;
  uint64_t stream_digest = 0;
  ClusterCounters counters;
  bool invariants_ok = true;
  MetricRegistry registry;  // every device's ssd/ftl/flash instruments
  std::string digest;
};

// One cluster built from the shape and the run seed. Construction plus
// Bootstrap() is the workload's set-up; Replay() is its timed loop.
class Harness {
 public:
  Harness(const ClusterShape& shape, uint64_t seed) : shape_(shape) {
    const salamander::FPageEccGeometry ecc;
    const salamander::WearModelConfig wear = salamander::WearModel::Calibrate(
        salamander::ComputeTirednessLevel(ecc, 0).max_tolerable_rber,
        kNominalPec);
    const uint64_t device_seed = DeriveSeed(seed, 3);
    shape_.device_faults.seed = DeriveSeed(seed, 5);
    traffic_seed_ = DeriveSeed(seed, 4);
    const auto factory = [&](uint32_t index) {
      salamander::SsdConfig config = salamander::MakeSsdConfig(
          salamander::SsdKind::kRegenS, salamander::FlashGeometry::Small(),
          wear, salamander::FlashLatencyConfig{}, ecc,
          device_seed + index * 17);
      config.minidisk.msize_opages = kUnitOPages;
      config.ftl.l2p_cache_entries = shape_.l2p_cache_entries;
      if (shape_.faults) {
        config.faults =
            std::make_shared<FaultInjector>(shape_.device_faults, index);
        injectors_.push_back(config.faults);
      }
      if (index == 0) {
        device_config_ = config;
        device_config_.faults = nullptr;
      }
      return std::make_unique<SsdDevice>(salamander::SsdKind::kRegenS,
                                         config);
    };
    if (shape_.ec) {
      salamander::EcConfig config;
      config.nodes = shape_.nodes;
      config.cell_opages = kUnitOPages;
      config.fill_fraction = kFillFraction;
      config.seed = DeriveSeed(seed, 2);
      config.sched = shape_.sched;
      config.suspect_grace_ticks = shape_.suspect_grace_ticks;
      ec_ = std::make_unique<EcCluster>(config, factory);
    } else {
      salamander::DifsConfig config;
      config.nodes = shape_.nodes;
      config.chunk_opages = kUnitOPages;
      config.fill_fraction = kFillFraction;
      config.seed = DeriveSeed(seed, 2);
      config.sched = shape_.sched;
      config.suspect_grace_ticks = shape_.suspect_grace_ticks;
      difs_ = std::make_unique<DifsCluster>(config, factory);
    }
  }

  Status Bootstrap() { return ec_ ? ec_->Bootstrap() : difs_->Bootstrap(); }

  uint32_t device_count() const {
    return ec_ ? ec_->device_count() : difs_->device_count();
  }
  // Device 0's configuration without its injector (the ladder's device).
  const salamander::SsdConfig& device_config() const { return device_config_; }

  void Replay(SpanRecorder* spans, ReplayOutcome* out);

 private:
  SsdDevice& device(uint32_t i) {
    return ec_ ? ec_->device(i) : difs_->device(i);
  }
  // oPage writes the devices' FTLs have taken from the cluster so far.
  uint64_t HostWrites() {
    uint64_t writes = 0;
    for (uint32_t d = 0; d < device_count(); ++d) {
      writes += device(d).ftl().stats().host_writes;
    }
    return writes;
  }
  uint64_t SchedWaitNs() const {
    return ec_ ? ec_->stats().sched_wait_ns : difs_->stats().sched_wait_ns;
  }
  Status Apply(const TrafficOp& op, SimDuration* cost, SpanRecorder* spans,
               uint64_t group);
  void Reconcile(SpanRecorder* spans, uint64_t group, ReplayOutcome* out);
  void Collect(ReplayOutcome* out);

  ClusterShape shape_;
  uint64_t traffic_seed_ = 0;
  uint64_t start_host_writes_ = 0;  // HostWrites() when the replay began
  salamander::SsdConfig device_config_;
  std::vector<std::shared_ptr<FaultInjector>> injectors_;
  std::unique_ptr<DifsCluster> difs_;
  std::unique_ptr<EcCluster> ec_;
};

Status Harness::Apply(const TrafficOp& op, SimDuration* cost,
                      SpanRecorder* spans, uint64_t group) {
  if (ec_) {
    const uint64_t cell = op.address / ec_->cell_opages();
    const salamander::StripeId stripe = cell / ec_->data_cells();
    const uint32_t data_cell = static_cast<uint32_t>(cell % ec_->data_cells());
    const uint64_t offset = op.address % ec_->cell_opages();
    if (op.is_read) {
      ScopedSpan span(spans, "EcCluster::ReadLogicalAt", group);
      return ec_->ReadLogicalAt(stripe, data_cell, offset, cost);
    }
    ScopedSpan span(spans, "EcCluster::WriteLogicalAt", group);
    return ec_->WriteLogicalAt(stripe, data_cell, offset, cost);
  }
  const salamander::ChunkId chunk = op.address / difs_->chunk_opages();
  const uint64_t offset = op.address % difs_->chunk_opages();
  if (op.is_read) {
    ScopedSpan span(spans, "DifsCluster::ReadChunkAt", group);
    return difs_->ReadChunkAt(chunk, offset, cost);
  }
  ScopedSpan span(spans, "DifsCluster::WriteChunkAt", group);
  return difs_->WriteChunkAt(chunk, offset, cost);
}

void Harness::Reconcile(SpanRecorder* spans, uint64_t group,
                        ReplayOutcome* out) {
  const Timer timer;
  {
    // After restarts the cluster reconciles everything, as chaos_soak does;
    // otherwise it only applies the devices' pending lifecycle events.
    ScopedSpan span(spans, shape_.faults ? "ForceReconcile" : "ProcessEvents",
                    group);
    if (shape_.faults) {
      ec_ ? ec_->ForceReconcile() : difs_->ForceReconcile();
    } else {
      ec_ ? ec_->ProcessEvents() : difs_->ProcessEvents();
    }
  }
  out->reconcile_us.Add(static_cast<double>(timer.Ns()) / 1000.0);
}

void Harness::Replay(SpanRecorder* spans, ReplayOutcome* out) {
  const uint64_t space = ec_ ? ec_->logical_opages() : difs_->logical_opages();
  salamander::TenantConfig tenant;
  tenant.ops_per_day = shape_.ops_per_day;
  tenant.read_fraction = shape_.read_fraction;
  tenant.zipf_theta = 0.99;
  salamander::TrafficEngine engine(
      salamander::MakeUniformTraffic(kTenants, tenant, traffic_seed_,
                                     shape_.mixed_arrivals),
      space == 0 ? 1 : space);
  std::vector<TrafficOp> ops;
  std::vector<uint32_t> dark;
  start_host_writes_ = HostWrites();
  const Timer replay;
  uint64_t day_start = NowNs();
  for (uint32_t day = 0; day < shape_.days; ++day) {
    const uint64_t day_group = (1ULL << 63) | day;
    // Power-loss lottery: every functioning device may go dark for the day,
    // but at most one at a time, so the outage plus a cell lost to a program
    // failure stays within what the redundancy tolerates. Devices after the
    // first dark one draw nothing that day.
    dark.clear();
    for (uint32_t d = 0; d < injectors_.size() && dark.empty(); ++d) {
      if (device(d).failed() || !injectors_[d]->LosesPower()) {
        continue;
      }
      ScopedSpan span(spans, "SsdDevice::Crash", day_group);
      device(d).Crash(SsdDevice::CrashKind::kPowerLoss);
      ++out->power_losses;
      dark.push_back(d);
    }
    ops.clear();
    const uint64_t emit_start = NowNs();
    {
      ScopedSpan span(spans, "TrafficEngine::EmitDay", day_group);
      engine.EmitDay(day, &ops);
    }
    out->emit_ns += static_cast<double>(NowNs() - emit_start);
    for (const TrafficOp& op : ops) {
      const uint64_t group = out->ops;
      SimDuration cost = 0;
      const uint64_t wait_before = SchedWaitNs();
      const Status status = Apply(op, &cost, spans, group);
      ++out->ops;
      ++(op.is_read ? out->reads : out->writes);
      if (!status.ok()) {
        ++out->failed;
        continue;
      }
      if (shape_.sched.enabled()) {
        out->queue_wait_ns.Record(SchedWaitNs() - wait_before);
      }
      out->total_cost_ns += cost;
      (op.is_read ? out->read_ns : out->write_ns).Record(cost);
    }
    // Power restored: every still-dark device restarts (journal replay).
    for (uint32_t d : dark) {
      if (!device(d).transiently_dark()) {
        ++out->upgrades;
        continue;
      }
      const Timer timer;
      Status status;
      {
        ScopedSpan span(spans, "SsdDevice::Restart", day_group);
        status = device(d).Restart();
      }
      out->restart_ms.Add(static_cast<double>(timer.Ns()) / 1e6);
      ++(status.ok() ? out->restarts : out->restart_failures);
    }
    Reconcile(spans, day_group, out);
    const uint64_t day_end = NowNs();
    out->day_s.push_back(static_cast<double>(day_end - day_start) / 1e9);
    day_start = day_end;
  }
  out->replay_s = replay.Seconds();
  out->stream_digest = engine.StreamDigest();
  Collect(out);
}

void Harness::Collect(ReplayOutcome* out) {
  ClusterCounters& c = out->counters;
  const salamander::BrownoutController* brownout = nullptr;
  if (ec_) {
    const salamander::EcStats& s = ec_->stats();
    c.device_writes = s.foreground_device_writes;
    c.recovery_writes = s.rebuild_opage_writes;
    c.recovery_reads = s.rebuild_opage_reads;
    c.rebuilt = s.cells_rebuilt;
    c.deferred = s.rebuild_deferred;
    c.degraded_reads = s.degraded_reads;
    c.data_lost = s.stripes_lost;
    c.suspect_windows = s.suspect_windows_started;
    c.suspect_returned = s.suspect_devices_returned;
    c.maintenance_ticks = s.maintenance_ticks;
    c.integrity_detected = s.integrity_detected;
    c.integrity_marked_bad = s.integrity_marked_bad;
    c.sheds = s.sched_read_sheds + s.sched_write_sheds;
    c.wait_ns = s.sched_wait_ns;
    c.hedged_reads = s.sched_hedged_reads;
    c.hedge_wins = s.sched_hedge_wins;
    brownout = ec_->brownout();
  } else {
    const salamander::DifsStats& s = difs_->stats();
    // The diFS counts logical writes; its replica fan-out is what the
    // devices took during the replay beyond recovery copies.
    c.device_writes =
        HostWrites() - start_host_writes_ - s.recovery_opage_writes;
    c.recovery_writes = s.recovery_opage_writes;
    c.recovery_reads = s.recovery_opage_reads;
    c.rebuilt = s.replicas_recovered;
    c.deferred = s.recovery_deferred;
    c.data_lost = s.chunks_lost;
    c.suspect_windows = s.suspect_windows_started;
    c.suspect_returned = s.suspect_devices_returned;
    c.transient_retries = s.transient_retries;
    c.maintenance_ticks = s.maintenance_ticks;
    c.integrity_detected = s.integrity_detected;
    c.integrity_marked_bad = s.integrity_marked_bad;
    c.sheds = s.sched_read_sheds + s.sched_write_sheds;
    c.wait_ns = s.sched_wait_ns;
    c.hedged_reads = s.sched_hedged_reads;
    c.hedge_wins = s.sched_hedge_wins;
    brownout = difs_->brownout();
    out->invariants_ok = difs_->CheckInvariants().ok();
  }
  c.brownout_entered = brownout == nullptr ? 0 : brownout->stats().entered;
  for (const auto& injector : injectors_) {
    for (int site = 0; site < salamander::FaultStats::kSites; ++site) {
      out->injected[site] += injector->stats().injected[site];
    }
  }
  for (uint32_t d = 0; d < device_count(); ++d) {
    device(d).CollectMetrics(out->registry);
    out->journal_records += device(d).ftl().journal().size();
    out->journal_replays += device(d).ftl().journal_replays();
    out->device_restarts += device(d).restarts();
    out->ftl_power_losses += device(d).ftl().power_losses();
  }

  Digest digest;
  for (uint64_t v :
       {out->stream_digest, out->ops, out->reads, out->writes, out->failed,
        out->total_cost_ns, out->read_ns.count(), out->read_ns.P50(),
        out->read_ns.P999(), out->read_ns.max(), out->write_ns.count(),
        out->write_ns.P50(), out->write_ns.P999(), out->write_ns.max(),
        out->queue_wait_ns.count(), out->queue_wait_ns.P50(),
        out->queue_wait_ns.P999(), out->power_losses, out->restarts,
        out->upgrades, c.device_writes, c.recovery_writes, c.recovery_reads,
        c.rebuilt, c.deferred, c.degraded_reads, c.data_lost,
        c.suspect_windows, c.suspect_returned, c.transient_retries,
        c.maintenance_ticks, c.integrity_detected, c.integrity_marked_bad,
        c.sheds, c.wait_ns, c.hedged_reads, c.hedge_wins,
        c.brownout_entered, out->journal_records, out->journal_replays}) {
    digest.Add(v);
  }
  for (const char* name :
       {"ftl.host_writes", "ftl.host_reads", "ftl.gc_relocations",
        "ftl.flushes", "ftl.erases", "ftl.read_retries",
        "ftl.uncorrectable_reads", "ftl.l2p.misses", "ftl.l2p.map_writes",
        "flash.programs", "flash.reads", "flash.erases",
        "ssd.decommissioned_total", "ssd.regenerated_total"}) {
    digest.Add(CounterValue(out->registry, name));
  }
  out->digest = digest.Hex();
}

// Set-up (construction + Bootstrap) and replay of one cluster.
void RunOnce(const ClusterShape& shape, uint64_t seed, SpanRecorder* spans,
             Checks* checks, ReplayOutcome* out,
             salamander::SsdConfig* device_config = nullptr) {
  const uint64_t builds_before = LadderBuilds();
  const Timer setup;
  std::unique_ptr<Harness> harness;
  {
    ScopedSpan span(spans, shape.ec ? "EcCluster::EcCluster+Bootstrap"
                                    : "DifsCluster::DifsCluster+Bootstrap",
                    0);
    harness = std::make_unique<Harness>(shape, seed);
    checks->Expect(harness->Bootstrap().ok(),
                   std::string(shape.name) + ": Bootstrap failed");
  }
  out->setup_s = setup.Seconds();
  out->ladder_builds = LadderBuilds() - builds_before;
  harness->Replay(spans, out);
  if (device_config != nullptr) {
    *device_config = harness->device_config();
  }
}

// Set-up only, for extra set-up samples.
double SetupOnce(const ClusterShape& shape, uint64_t seed) {
  const Timer setup;
  Harness harness(shape, seed);
  (void)harness.Bootstrap();
  return setup.Seconds();
}

void CheckGuards(const ClusterShape& shape, const ReplayOutcome& out,
                 Checks* checks) {
  const std::string name = shape.name;
  const ClusterCounters& c = out.counters;
  checks->Expect(out.failed == 0, name + ": every op must succeed");
  checks->Expect(c.data_lost == 0, name + ": no data may be lost");
  checks->Expect(out.invariants_ok, name + ": cluster invariants broken");
  // p999 needs at least ten samples beyond it.
  checks->Expect(out.read_ns.count() >= 10000 && out.write_ns.count() >= 10000,
                 name + ": fewer than 10,000 reads or writes");
  if (!shape.faults) {
    checks->Expect(c.sheds == 0, name + ": sched.sheds must be 0");
    checks->Expect(CounterValue(out.registry, "ftl.l2p.misses") > 0,
                   name + ": the L2P window must miss");
    return;
  }
  const uint64_t* injected = out.injected;
  checks->Expect(out.power_losses > 0, name + ": power losses > 0");
  checks->Expect(out.restarts > 0, name + ": restarts > 0");
  checks->Expect(c.rebuilt > 0, name + ": rebuilt cells > 0");
  checks->Expect(c.degraded_reads > 0, name + ": degraded reads > 0");
  // Ledgers of the library's own counts: every injected power loss reached
  // an FTL, and every one ended in a journal-replayed restart or a permanent
  // upgrade, as the devices count them.
  checks->Expect(out.ftl_power_losses ==
                     injected[static_cast<int>(FaultSite::kPowerLoss)],
                 name + ": FTL power losses == injected power losses");
  checks->Expect(out.device_restarts == out.restarts,
                 name + ": device restarts == restarts issued");
  checks->Expect(out.journal_replays == out.device_restarts,
                 name + ": journal replays == device restarts");
  checks->Expect(out.ftl_power_losses == out.device_restarts + out.upgrades,
                 name + ": power losses == restarts + permanent upgrades");
  checks->Expect(out.restart_failures == 0, name + ": every restart succeeds");
  checks->Expect(c.integrity_detected ==
                     injected[static_cast<int>(FaultSite::kReadCorrupt)],
                 name + ": integrity.detected == faults.read_corrupt");
}

void RunCluster(const ClusterShape& shape, const RunOptions& options,
                Report* report) {
  const Timer elapsed;
  ReplayOutcome first;
  salamander::SsdConfig device_config;
  RunOnce(shape, options.seed, nullptr, &report->checks, &first,
          &device_config);
  // Peak memory of one set-up and replay; later repetitions would only add
  // allocator fragmentation, and how many fit depends on host speed.
  const double peak_rss_mb = PeakRssMb();
  CheckGuards(shape, first, &report->checks);
  report->digest = first.digest;
  report->attempted = first.ops;
  report->failed = first.failed;
  const uint32_t devices = shape.nodes;  // one device per node
  const double device_days =
      static_cast<double>(devices) * static_cast<double>(shape.days);

  if (!options.trace) {
    // Each repetition sets up and replays once, plus three set-ups alone, so
    // set-up time (tens of ms here) gets its own larger sample.
    Samples setup_s;
    Samples replay_s;
    setup_s.Add(first.setup_s);
    replay_s.Add(first.replay_s);
    std::vector<double> fastest_day_s = first.day_s;
    Repeat(options.seconds - elapsed.Seconds(), 2, [&](int) {
      ReplayOutcome rep;
      RunOnce(shape, options.seed, nullptr, &report->checks, &rep);
      report->checks.Expect(rep.digest == first.digest,
                            std::string(shape.name) +
                                ": repeated run diverged");
      setup_s.Add(rep.setup_s);
      replay_s.Add(rep.replay_s);
      for (size_t day = 0; day < fastest_day_s.size(); ++day) {
        fastest_day_s[day] = std::min(fastest_day_s[day], rep.day_s[day]);
      }
      for (int extra = 0; extra < 3; ++extra) {
        setup_s.Add(SetupOnce(shape, options.seed));
      }
    });
    // Every day at its fastest repetition, see Repeat().
    double replay = 0.0;
    for (double seconds : fastest_day_s) {
      replay += seconds;
    }
    report->e2e["setup_s"] = setup_s.Min();  // see Repeat()
    report->e2e["device_days_per_s"] = device_days / replay;
    report->e2e["ops_per_s"] = static_cast<double>(first.ops) / replay;
    report->e2e["peak_rss_mb"] = peak_rss_mb;
    std::printf("%s: %u devices x %u days, %llu ops per run, %zu runs, "
                "%zu set-ups\n",
                shape.name, devices, shape.days,
                static_cast<unsigned long long>(first.ops), replay_s.size(),
                setup_s.size());
    PrintSpread("setup_s", setup_s);
    PrintSpread("replay_s", replay_s);
    std::printf("  replay_s with each day at its fastest: %.6g\n", replay);
    return;
  }

  SpanRecorder spans;
  ReplayOutcome traced;
  RunOnce(shape, options.seed, &spans, &report->checks, &traced);
  report->checks.Expect(traced.digest == first.digest,
                        std::string(shape.name) + ": traced run diverged");
  // Ladder: one fault-free device of the workload's configuration, fed the
  // per-device write and read volume the workload produced.
  const MetricRegistry& reg = first.registry;
  const double host_writes =
      static_cast<double>(CounterValue(reg, "ftl.host_writes"));
  const double host_reads =
      static_cast<double>(CounterValue(reg, "ftl.host_reads"));
  LadderDevice slot;
  slot.kind = salamander::SsdKind::kRegenS;
  slot.config = device_config;
  slot.driver_seed = DeriveSeed(options.seed, 6);
  slot.days = shape.days;
  slot.writes_per_day =
      static_cast<uint64_t>(host_writes / devices / shape.days);
  slot.reads = static_cast<uint64_t>(host_reads / devices);
  slot.read_seed = DeriveSeed(options.seed, 7);
  const LadderResult ladder = RunLadder({slot}, nullptr);
  report->checks.Expect(ladder.ok && ladder.streams_match,
                        std::string(shape.name) +
                            ": ladder rungs wrote different streams");
  if (!options.trace_out.empty() && !spans.WriteCsv(options.trace_out)) {
    report->checks.Expect(false, "cannot write " + options.trace_out);
  }

  const ClusterCounters& c = first.counters;
  const char* write_span =
      shape.ec ? "EcCluster::WriteLogicalAt" : "DifsCluster::WriteChunkAt";
  const char* read_span =
      shape.ec ? "EcCluster::ReadLogicalAt" : "DifsCluster::ReadChunkAt";
  const Samples write_host = spans.DurationsNs(write_span);
  const Samples read_host = spans.DurationsNs(read_span);
  const uint64_t* injected = first.injected;
  auto& m = report->layer;
  m["ecc.ladder_build_us"] = LadderBuildUs();
  m["ecc.ladder_builds"] = first.ladder_builds;
  m["ecc.ladder_share_of_setup"] =
      Ratio(m["ecc.ladder_build_us"] * first.ladder_builds,
            first.setup_s * 1e6);
  m["workload.aging_day_us.p50"] = ladder.aging_day_us.Median();
  m["workload.aging_day_us.p999"] = ladder.aging_day_us.Quantile(0.999);
  m["workload.aging_day_n"] = ladder.aging_day_us.size();
  m["workload.aging_self_ns_per_opage"] =
      Ratio(ladder.aging_ns, static_cast<double>(ladder.aging_ops)) -
      (ladder.ssd_write_ns.Mean() - TimerOverheadNs());
  m["workload.emit_ns_per_op"] =
      Ratio(first.emit_ns, static_cast<double>(first.ops));
  m["ssd.write_ns.p50"] = ladder.ssd_write_ns.Median();
  m["ssd.write_ns.p999"] = ladder.ssd_write_ns.Quantile(0.999);
  m["ssd.write_n"] = ladder.ssd_write_ns.size();
  m["ssd.self_write_ns"] = Ratio(ladder.ssd_minus_ftl_ns,
                                 static_cast<double>(ladder.common_ops));
  m["ssd.restart_ms.p50"] = first.restart_ms.Median();
  m["ssd.restart_ms.max"] = first.restart_ms.Max();
  m["ssd.restarts"] = first.restart_ms.size();
  m["core.decommissioned"] = CounterValue(reg, "ssd.decommissioned_total");
  m["core.regenerated"] = CounterValue(reg, "ssd.regenerated_total");
  m["core.drains_forced"] = CounterValue(reg, "ssd.drains_forced");
  m["ftl.write_ns.p50"] = ladder.ftl_write_ns.Median();
  m["ftl.write_ns.p999"] = ladder.ftl_write_ns.Quantile(0.999);
  m["ftl.read_ns.p50"] = ladder.ftl_read_ns.Median();
  m["ftl.read_ns.p999"] = ladder.ftl_read_ns.Quantile(0.999);
  const double relocations =
      static_cast<double>(CounterValue(reg, "ftl.gc_relocations"));
  m["ftl.gc_useful_ratio"] = Ratio(host_writes, host_writes + relocations);
  m["ftl.flushes_per_host_write"] =
      Ratio(CounterValue(reg, "ftl.flushes"), host_writes);
  m["ftl.erases_per_host_write"] =
      Ratio(CounterValue(reg, "ftl.erases"), host_writes);
  m["ftl.journal_records"] = first.journal_records;
  m["ftl.journal_replays"] = first.journal_replays;
  m["ftl.read_retries"] = CounterValue(reg, "ftl.read_retries");
  m["ftl.uncorrectable_reads"] = CounterValue(reg, "ftl.uncorrectable_reads");
  const double l2p_hits = static_cast<double>(CounterValue(reg, "ftl.l2p.hits"));
  const double l2p_misses =
      static_cast<double>(CounterValue(reg, "ftl.l2p.misses"));
  m["ftl.l2p_hit_ratio"] = Ratio(l2p_hits, l2p_hits + l2p_misses);
  m["ftl.l2p_map_writes_per_host_write"] =
      Ratio(CounterValue(reg, "ftl.l2p.map_writes"), host_writes);
  m["flash.programs_per_host_write"] =
      Ratio(CounterValue(reg, "flash.programs"), host_writes);
  m["flash.reads_per_host_read"] =
      Ratio(CounterValue(reg, "flash.reads"), host_reads);
  m["flash.erases"] = CounterValue(reg, "flash.erases");
  m["difs.write_ns.p50"] = write_host.Median();
  m["difs.write_ns.p999"] = write_host.Quantile(0.999);
  m["difs.read_ns.p50"] = read_host.Median();
  m["difs.read_ns.p999"] = read_host.Quantile(0.999);
  m["difs.reconcile_us.p50"] = first.reconcile_us.Median();
  m["difs.reconcile_us.max"] = first.reconcile_us.Max();
  m["difs.device_writes_per_write"] =
      Ratio(c.device_writes, first.write_ns.count());
  m["difs.recovery_opage_writes"] = c.recovery_writes;
  m["difs.recovery_opage_reads"] = c.recovery_reads;
  m["difs.degraded_reads"] = c.degraded_reads;
  m["difs.rebuild_useful_ratio"] = Ratio(c.rebuilt, c.rebuilt + c.deferred);
  m["difs.data_lost"] = c.data_lost;
  m["difs.suspect_windows"] = c.suspect_windows;
  m["difs.suspect_returned"] = c.suspect_returned;
  m["difs.transient_retries"] = c.transient_retries;
  m["difs.maintenance_ticks"] = c.maintenance_ticks;
  m["sched.queue_wait_us.p50"] = HistUs(first.queue_wait_ns, 0.5);
  m["sched.queue_wait_us.p999"] = HistUs(first.queue_wait_ns, 0.999);
  m["sched.sheds"] = c.sheds;
  m["sched.hedged_reads"] = c.hedged_reads;
  m["sched.hedge_win_ratio"] = Ratio(c.hedge_wins, c.hedged_reads);
  m["sched.brownout_entered"] = c.brownout_entered;
  m["faults.power_loss"] = injected[static_cast<int>(FaultSite::kPowerLoss)];
  m["faults.torn_journal"] =
      injected[static_cast<int>(FaultSite::kTornJournalWrite)];
  m["faults.program_fail"] =
      injected[static_cast<int>(FaultSite::kProgramFail)];
  m["faults.read_corrupt"] =
      injected[static_cast<int>(FaultSite::kReadCorrupt)];
  m["integrity.detected"] = c.integrity_detected;
  m["integrity.marked_bad"] = c.integrity_marked_bad;
  m["trace.overhead_ratio"] = Ratio(traced.setup_s + traced.replay_s,
                                    first.setup_s + first.replay_s);
  m["trace.spans"] = spans.size();
  m["sim_read_p50_us"] = HistUs(first.read_ns, 0.5);
  m["sim_read_p999_us"] = HistUs(first.read_ns, 0.999);
  m["sim_read_n"] = first.read_ns.count();
  m["sim_write_p50_us"] = HistUs(first.write_ns, 0.5);
  m["sim_write_p999_us"] = HistUs(first.write_ns, 0.999);
  m["sim_write_n"] = first.write_ns.count();
  m["failed_op_ratio"] =
      Ratio(first.failed, static_cast<double>(first.ops));
}

}  // namespace

void RunReplicatedTraffic(const RunOptions& options, Report* report) {
  RunCluster(ReplicatedShape(options.tiny), options, report);
}

void RunEcFaults(const RunOptions& options, Report* report) {
  RunCluster(EcShape(options.tiny), options, report);
}

}  // namespace perfbench
