// fleet-wearout: a crash-free RegenS fleet on the fleet_scaling datacenter
// geometry, worn to the end of a five-year horizon. Set-up (one FTL and one
// tiredness ladder per device) and the per-oPage device stack dominate; no
// clusters, queues, reads or faults run. 32-oPage mDisks (not the profile's
// 64) so RegenS actually regenerates mDisks on this tiny device.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ecc/tiredness.h"
#include "fleet/fleet_sim.h"
#include "flash/wear_model.h"
#include "ladder.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using salamander::FleetConfig;
using salamander::FleetSchedulerStats;
using salamander::FleetSim;
using salamander::FleetSnapshot;
using salamander::MetricRegistry;

FleetConfig WearoutConfig(const RunOptions& options, unsigned threads) {
  FleetConfig config;
  config.kind = salamander::SsdKind::kRegenS;
  config.devices = options.tiny ? 16 : 500;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_plane = 8;
  config.geometry.fpages_per_block = 8;
  config.ecc = salamander::FPageEccGeometry{};
  config.wear = salamander::WearModel::Calibrate(
      salamander::ComputeTirednessLevel(config.ecc, 0).max_tolerable_rber,
      /*nominal_pec=*/160);
  config.msize_opages = 32;
  config.dwpd = 0.5;
  config.dwpd_sigma = 0.3;
  config.afr = 0.02;
  config.days = options.tiny ? 900 : 1825;
  config.sample_every_days = 30;
  config.seed = DeriveSeed(options.seed, 1);
  config.threads = threads;
  config.scheduler = salamander::FleetSchedulerMode::kEventDriven;
  return config;
}

struct FleetOutcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  uint64_t ladder_builds = 0;  // ComputeTirednessLadder calls in set-up
  std::string digest;
  std::optional<uint32_t> halflife_day;
  FleetSchedulerStats sched;
  MetricRegistry registry;  // CollectMetrics() after Run()
};

// Constructs and runs one fleet, timing set-up and Run() separately.
void RunOnce(const FleetConfig& config, SpanRecorder* spans,
             FleetOutcome* out) {
  const uint64_t builds_before = LadderBuilds();
  const Timer setup;
  std::unique_ptr<FleetSim> sim;
  {
    ScopedSpan span(spans, "FleetSim::FleetSim", 0);
    sim = std::make_unique<FleetSim>(config);
  }
  out->setup_s = setup.Seconds();
  out->ladder_builds = LadderBuilds() - builds_before;
  const Timer run;
  std::vector<FleetSnapshot> snapshots;
  {
    ScopedSpan span(spans, "FleetSim::Run", 0);
    snapshots = sim->Run();
  }
  out->run_s = run.Seconds();
  out->halflife_day = sim->DayCapacityBelow(0.5);
  out->sched = sim->scheduler_stats();
  sim->CollectMetrics(out->registry);

  Digest digest;
  for (const FleetSnapshot& s : snapshots) {
    digest.Add(s.day);
    digest.Add(s.functioning_devices);
    digest.Add(s.capacity_bytes);
    digest.Add(s.cumulative_decommissions);
    digest.Add(s.cumulative_regenerations);
    digest.Add(s.cumulative_host_writes);
  }
  for (uint64_t device : sim->DeviceDigests()) {
    digest.Add(device);
  }
  out->digest = digest.Hex();
}

// The first `count` device slots as FleetSim's constructor builds them for
// this workload's config: the same per-slot RNG forks, SsdConfig and daily
// write budget. This copies the branches of fleet_sim.cc's constructor that
// the config takes (no cohort wear, faults, scrub or traffic);
// CheckLadderSlots() fails the run when the copy stops matching FleetSim.
std::vector<LadderDevice> LadderSlots(const FleetConfig& config,
                                      uint32_t count) {
  std::vector<LadderDevice> slots;
  salamander::Rng fleet_rng(config.seed ^ 0xf1ee7f1ee7f1ee70ULL);
  for (uint32_t i = 0; i < count && i < config.devices; ++i) {
    salamander::Rng slot_rng = fleet_rng.Fork();
    const uint64_t device_seed = fleet_rng.ForkSeed();
    LadderDevice slot;
    slot.kind = config.kind;
    slot.driver_seed = fleet_rng.ForkSeed();
    slot.config = salamander::MakeSsdConfig(
        config.kind, config.geometry, config.wear, config.latency, config.ecc,
        device_seed, config.regen_max_level);
    slot.config.minidisk.msize_opages = config.msize_opages;
    slot.config.ftl.l2p_cache_entries = config.l2p_cache_entries;
    const uint64_t per_device_opages =
        salamander::SsdDevice(slot.kind, slot.config).initial_capacity_bytes() /
        config.geometry.opage_bytes;
    const double imbalance = slot_rng.LogNormal(0.0, config.dwpd_sigma);
    slot.writes_per_day = static_cast<uint64_t>(
        config.dwpd * imbalance * static_cast<double>(per_device_opages));
    slot.days = config.days;
    slot.reads = slot.writes_per_day * 4;
    slot.read_seed = DeriveSeed(config.seed, 100 + i);
    slots.push_back(slot);
  }
  return slots;
}

// The ladder's rung A steps its slots day by day as FleetSim steps a fleet,
// minus the AFR failure draw. So a FleetSim of just those slots, with AFR 0,
// must end in the state the ladder's rung-A devices ended in.
void CheckLadderSlots(const FleetConfig& config, const LadderResult& ladder,
                      uint32_t count, Checks* checks) {
  FleetConfig alone = config;
  alone.devices = count;
  alone.afr = 0.0;
  alone.threads = 1;
  alone.sample_every_days = config.days;
  FleetSim sim(alone);
  const FleetSnapshot fleet = sim.Run().back();
  FleetSnapshot rung_a;
  rung_a.day = fleet.day;
  rung_a.functioning_devices = ladder.functioning_devices;
  rung_a.capacity_bytes = ladder.capacity_bytes;
  rung_a.cumulative_decommissions = ladder.decommissions;
  rung_a.cumulative_regenerations = ladder.regenerations;
  rung_a.cumulative_host_writes = ladder.host_writes;
  checks->Expect(fleet == rung_a,
                 "fleet-wearout: ladder slots differ from FleetSim's devices");
}

void CheckGuards(const FleetOutcome& outcome, Checks* checks) {
  checks->Expect(CounterValue(outcome.registry, "ssd.regenerated_total") > 0,
                 "fleet-wearout: core.regenerated > 0 (RegenS must "
                 "regenerate mDisks)");
  checks->Expect(outcome.halflife_day.has_value(),
                 "fleet-wearout: fleet capacity must fall below half");
  checks->Expect(outcome.sched.days_stepped > 0,
                 "fleet-wearout: device-days stepped > 0");
}

}  // namespace

void RunFleetWearout(const RunOptions& options, Report* report) {
  const FleetConfig config = WearoutConfig(options, options.threads);
  const double device_days =
      static_cast<double>(config.devices) * static_cast<double>(config.days);
  const Timer elapsed;

  // The first run is serial: its outputs are the reference every parallel
  // run must reproduce, and its peak memory does not depend on which worker
  // thread's malloc arena happened to serve which device.
  FleetOutcome first;
  RunOnce(WearoutConfig(options, 1), nullptr, &first);
  // Peak memory of one set-up and run; later repetitions would only add
  // allocator fragmentation, and how many fit depends on host speed.
  const double peak_rss_mb = PeakRssMb();
  CheckGuards(first, &report->checks);
  report->digest = first.digest;
  const uint64_t host_writes = CounterValue(first.registry, "ftl.host_writes");
  report->attempted = host_writes;

  if (!options.trace) {
    Samples setup_s;  // FleetSim's constructor is serial at any thread count
    Samples run_s;
    setup_s.Add(first.setup_s);
    Repeat(options.seconds - elapsed.Seconds(), 2, [&](int) {
      FleetOutcome rep;
      RunOnce(config, nullptr, &rep);
      report->checks.Expect(rep.digest == first.digest,
                            "fleet-wearout: parallel run differs from serial");
      setup_s.Add(rep.setup_s);
      run_s.Add(rep.run_s);
    });
    const double run = run_s.Median();  // see Repeat()
    report->e2e["setup_s"] = setup_s.Median();
    report->e2e["device_days_per_s"] = device_days / run;
    report->e2e["ops_per_s"] = static_cast<double>(host_writes) / run;
    report->e2e["peak_rss_mb"] = peak_rss_mb;
    std::printf("fleet-wearout: %u devices x %u days, %u threads, %zu runs, "
                "%llu oPage writes per run\n",
                config.devices, config.days, config.threads, run_s.size(),
                static_cast<unsigned long long>(host_writes));
    PrintSpread("setup_s", setup_s);
    PrintSpread("run_s", run_s);
    return;
  }

  // Traced run: the fleet on its worker threads without and with spans, then
  // the layer ladder on a sample of its device slots.
  const FleetOutcome& serial = first;
  FleetOutcome parallel;
  RunOnce(config, nullptr, &parallel);
  report->checks.Expect(parallel.digest == first.digest,
                        "fleet-wearout: parallel run differs from serial");
  SpanRecorder spans;
  FleetOutcome traced;
  RunOnce(config, &spans, &traced);
  report->checks.Expect(traced.digest == first.digest,
                        "fleet-wearout: traced run diverged");
  const uint32_t ladder_slots = options.tiny ? 2 : 24;
  const LadderResult ladder =
      RunLadder(LadderSlots(config, ladder_slots), &spans);
  report->checks.Expect(ladder.ok && ladder.streams_match,
                        "fleet-wearout: ladder rungs wrote different streams");
  CheckLadderSlots(config, ladder, ladder_slots, &report->checks);
  if (!options.trace_out.empty() && !spans.WriteCsv(options.trace_out)) {
    report->checks.Expect(false, "cannot write " + options.trace_out);
  }

  const MetricRegistry& reg = first.registry;
  const double ftl_writes = static_cast<double>(host_writes);
  auto& m = report->layer;
  m["ecc.ladder_build_us"] = LadderBuildUs();
  m["ecc.ladder_builds"] = first.ladder_builds;
  m["ecc.ladder_share_of_setup"] =
      Ratio(m["ecc.ladder_build_us"] * first.ladder_builds,
            first.setup_s * 1e6);
  m["fleet.setup_us_per_device"] = first.setup_s * 1e6 / config.devices;
  m["fleet.run_serial_s"] = serial.run_s;
  m["fleet.parallel_speedup"] = Ratio(serial.run_s, parallel.run_s);
  m["fleet.host_us_per_stepped_day"] =
      Ratio(serial.run_s * 1e6, static_cast<double>(first.sched.days_stepped));
  m["fleet.days_stepped"] = first.sched.days_stepped;
  m["fleet.events"] = first.sched.events;
  m["fleet.batches"] = first.sched.batches;
  m["fleet.idle_windows"] = first.sched.idle_windows;
  m["fleet.dark_days_skipped"] = first.sched.dark_days_skipped;
  m["workload.aging_day_us.p50"] = ladder.aging_day_us.Median();
  m["workload.aging_day_us.p999"] = ladder.aging_day_us.Quantile(0.999);
  m["workload.aging_day_n"] = ladder.aging_day_us.size();
  m["workload.aging_self_ns_per_opage"] =
      Ratio(ladder.aging_ns, static_cast<double>(ladder.aging_ops)) -
      (ladder.ssd_write_ns.Mean() - TimerOverheadNs());
  m["ssd.write_ns.p50"] = ladder.ssd_write_ns.Median();
  m["ssd.write_ns.p999"] = ladder.ssd_write_ns.Quantile(0.999);
  m["ssd.write_n"] = ladder.ssd_write_ns.size();
  m["ssd.self_write_ns"] = Ratio(ladder.ssd_minus_ftl_ns,
                                 static_cast<double>(ladder.common_ops));
  m["core.decommissioned"] = CounterValue(reg, "ssd.decommissioned_total");
  m["core.regenerated"] = CounterValue(reg, "ssd.regenerated_total");
  m["core.drains_forced"] = CounterValue(reg, "ssd.drains_forced");
  m["ftl.write_ns.p50"] = ladder.ftl_write_ns.Median();
  m["ftl.write_ns.p999"] = ladder.ftl_write_ns.Quantile(0.999);
  m["ftl.read_ns.p50"] = ladder.ftl_read_ns.Median();
  m["ftl.read_ns.p999"] = ladder.ftl_read_ns.Quantile(0.999);
  const double relocations =
      static_cast<double>(CounterValue(reg, "ftl.gc_relocations"));
  m["ftl.gc_useful_ratio"] = Ratio(ftl_writes, ftl_writes + relocations);
  m["ftl.flushes_per_host_write"] =
      Ratio(CounterValue(reg, "ftl.flushes"), ftl_writes);
  m["ftl.erases_per_host_write"] =
      Ratio(CounterValue(reg, "ftl.erases"), ftl_writes);
  m["ftl.journal_records"] = ladder.journal_records;
  m["ftl.journal_replays"] = CounterValue(reg, "ftl.journal.replays");
  m["ftl.read_retries"] = CounterValue(reg, "ftl.read_retries");
  m["ftl.uncorrectable_reads"] = CounterValue(reg, "ftl.uncorrectable_reads");
  m["flash.programs_per_host_write"] =
      Ratio(CounterValue(reg, "flash.programs"), ftl_writes);
  m["flash.reads_per_host_read"] =
      Ratio(CounterValue(reg, "flash.reads"),
            CounterValue(reg, "ftl.host_reads"));
  m["flash.erases"] = CounterValue(reg, "flash.erases");
  m["sim_capacity_halflife_days"] = first.halflife_day.value_or(0);
  m["trace.overhead_ratio"] =
      Ratio(traced.setup_s + traced.run_s, parallel.setup_s + parallel.run_s);
  m["trace.spans"] = spans.size();
  std::printf("fleet-wearout traced: serial %.3f s, parallel %.3f s on %u "
              "threads; ladder %zu device-days, %zu SsdDevice writes\n",
              serial.run_s, parallel.run_s, config.threads,
              ladder.aging_day_us.size(), ladder.ssd_write_ns.size());
}

}  // namespace perfbench
